#ifndef MUGI_SERVER_JSON_H_
#define MUGI_SERVER_JSON_H_

/**
 * @file
 * Minimal JSON for the HTTP front-end: parse request bodies, build
 * response/stream lines.  No external dependency -- a ~RFC 8259
 * recursive-descent parser over std::string plus an escape-correct
 * writer, covering exactly what the serving API exchanges (objects,
 * arrays, numbers, strings, bools, null; no \uXXXX surrogate pairs
 * beyond pass-through).
 *
 * bench/serve_load --check reuses this to parse the NDJSON token
 * stream back out of the HTTP response, so the front-end and its
 * gate agree on one grammar.
 *
 * Thread-safety: externally serialized -- Value is a plain value
 * type and parse() is a pure function of its argument; distinct
 * threads may parse distinct documents freely.
 */

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mugi {
namespace server {
namespace json {

/** One parsed JSON value (tagged union over the std containers). */
struct Value {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool is_null() const { return kind == Kind::kNull; }
    bool is_number() const { return kind == Kind::kNumber; }
    bool is_string() const { return kind == Kind::kString; }
    bool is_array() const { return kind == Kind::kArray; }
    bool is_object() const { return kind == Kind::kObject; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value* find(const std::string& key) const;
    /** Member as a double, or @p fallback when absent/mistyped. */
    double number_or(const std::string& key, double fallback) const;
    /** Member as a bool, or @p fallback when absent/mistyped. */
    bool bool_or(const std::string& key, bool fallback) const;
};

/** Parse one JSON document; nullopt on any syntax error. */
std::optional<Value> parse(const std::string& text);

/** Escape @p text as the inside of a JSON string literal. */
std::string escape(const std::string& text);

/**
 * Incremental object writer for the streaming lines the front-end
 * emits: ObjectWriter w; w.field("id", ...); w.str() -> {"id":...}.
 */
class ObjectWriter {
  public:
    ObjectWriter& field(const std::string& key, double value);
    ObjectWriter& field(const std::string& key, const std::string& value);
    ObjectWriter& field_bool(const std::string& key, bool value);
    ObjectWriter& field_int(const std::string& key, long long value);
    ObjectWriter& field_raw(const std::string& key,
                            const std::string& json);
    std::string str() const;

  private:
    std::string body_;
};

}  // namespace json
}  // namespace server
}  // namespace mugi

#endif  // MUGI_SERVER_JSON_H_
