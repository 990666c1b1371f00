/**
 * @file
 * Figure 7: progressive per-layer LUT-window tuning of Llama 2
 * (7B, 13B): tune the softmax window layer by layer (greedy, earlier
 * layers frozen) and print the PPL trajectory.  Expected shape: PPL
 * decreases (or holds) monotonically as more layers are tuned and
 * ends close to the exact baseline.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "model/accuracy.h"

using namespace mugi;

int
main()
{
    bench::print_title("Figure 7: per-layer softmax window tuning");

    model::EvalOptions options;
    options.num_sequences = 2;
    options.seq_len = 16;

    std::uint32_t seed = 167;
    for (const model::ModelConfig& full :
         {model::llama2_7b(), model::llama2_13b()}) {
        // Keep more layers than the other accuracy benches so the
        // per-layer trajectory is visible; scale the layer count with
        // the model as Table 1 does (32 vs 40 at full scale).
        const std::size_t layers =
            full.num_layers >= 40 ? 8 : 6;
        const model::ModelConfig config =
            full.scaled_for_eval(layers, 48, 128);
        model::TransformerModel m(config, seed += 31);

        const std::vector<model::TeacherPass> teacher =
            model::teacher_passes(m, options);
        const double base =
            model::evaluate_base(m, teacher).perplexity;
        const std::vector<int> candidates = {-2, 0, 2, 4};
        const model::PerLayerTuningResult tuned =
            model::tune_softmax_per_layer(m, candidates, 8, teacher);

        bench::print_subtitle(full.name);
        std::printf("Base PPL: %.4f\n", base);
        std::printf("%-8s %-12s %-10s\n", "layer", "chosen max_exp",
                    "PPL");
        for (std::size_t l = 0; l < tuned.ppl_after_layer.size();
             ++l) {
            std::printf("%-8zu %-12d %-10.4f\n", l,
                        tuned.chosen_max_exp[l],
                        tuned.ppl_after_layer[l]);
        }
        std::printf("Final PPL: %.4f (paper: 5.98 for 7B, 5.43 for "
                    "13B at full scale)\n",
                    tuned.final_ppl);
    }

    std::printf(
        "\nExpected shape (paper): the trajectory is non-increasing "
        "and the final\nPPL approaches the exact baseline.\n");
    return 0;
}
