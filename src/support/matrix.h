#ifndef MUGI_SUPPORT_MATRIX_H_
#define MUGI_SUPPORT_MATRIX_H_

/**
 * @file
 * Minimal row-major dense matrix used across the VLP kernels, the
 * quantization substrate and the transformer model.  Deliberately
 * simple: shape + a view of rows * cols elements of a shared block +
 * bounds-checked element access in debug builds.
 *
 * Storage: every Matrix views its elements through one
 * std::shared_ptr into a block.  The shape constructors allocate a
 * value-initialized block of their own; the block constructor views
 * a slice of a caller's block, which is how a TransformerModel keeps
 * all its weights in one mapping (DESIGN.md, "Model weights").  A
 * slice holds a reference to its block, so the block is released
 * when the last matrix viewing it dies.  Copies are deep: a copy
 * owns a new block with the source's elements, whether the source
 * owned its block or viewed a slice, and copy assignment replaces
 * the target's storage the same way (to write into a slice, assign
 * to its data()).  A moved-from matrix is 0x0.
 *
 * data() is a view of the elements, not a container: it cannot
 * resize, and assigning an equal-size range to it (a std::vector,
 * another matrix's data()) copies the range in.
 *
 * Thread-safety: externally serialized.  A Matrix is a plain value
 * with no internal locking; concurrent const access is safe, and any
 * writer requires exclusive access to the elements it writes (the
 * kernels hand each worker a disjoint row range or a private output
 * tile).  Slices of one block are separate values: threads may
 * write, copy or destroy different slices at once, since they share
 * only the block's atomic reference count.
 */

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace mugi {
namespace support {

/**
 * A std::span over a matrix's elements that assigns and compares
 * like a container: assignment copies the assigned range into the
 * viewed elements instead of rebinding the view, and == compares
 * elements.  The sizes must match, since a view cannot resize; a
 * mismatch throws std::length_error.  A view of const elements
 * cannot be assigned.
 */
template <typename T>
class ElementSpan : public std::span<T> {
  public:
    using std::span<T>::span;

    ElementSpan(const ElementSpan&) = default;

    ElementSpan&
    operator=(const ElementSpan& other)
        requires(!std::is_const_v<T>)
    {
        return *this = std::span<const T>(other);
    }

    ElementSpan&
    operator=(std::span<const T> values)
        requires(!std::is_const_v<T>)
    {
        if (values.size() != this->size()) {
            throw std::length_error(
                "ElementSpan: assigned range has another size");
        }
        std::copy(values.begin(), values.end(), this->begin());
        return *this;
    }

    friend bool
    operator==(const ElementSpan& a, const ElementSpan& b)
    {
        return std::ranges::equal(a, b);
    }
};

/** Row-major dense matrix of T. */
template <typename T>
class Matrix {
  public:
    Matrix() = default;

    /** rows x cols matrix, value-initialized. */
    Matrix(std::size_t rows, std::size_t cols)
        : Matrix(rows, cols, T())
    {
    }

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, T fill)
        : rows_(rows),
          cols_(cols),
          data_(std::make_shared_for_overwrite<T[]>(rows * cols))
    {
        std::fill_n(data_.get(), rows * cols, fill);
    }

    /**
     * rows x cols matrix viewing elements [first, first + rows *
     * cols) of @p block, which must hold them; the elements are not
     * written, and the matrix keeps the block alive.
     */
    Matrix(std::size_t rows, std::size_t cols,
           const std::shared_ptr<T[]>& block, std::size_t first)
        : rows_(rows), cols_(cols), data_(block, block.get() + first)
    {
    }

    Matrix(const Matrix& other)
        : rows_(other.rows_),
          cols_(other.cols_),
          data_(std::make_shared_for_overwrite<T[]>(other.size()))
    {
        std::copy_n(other.data_.get(), other.size(), data_.get());
    }

    Matrix(Matrix&& other) noexcept
        : rows_(std::exchange(other.rows_, 0)),
          cols_(std::exchange(other.cols_, 0)),
          data_(std::move(other.data_))
    {
    }

    Matrix&
    operator=(const Matrix& other)
    {
        return *this = Matrix(other);
    }

    Matrix&
    operator=(Matrix&& other) noexcept
    {
        rows_ = std::exchange(other.rows_, 0);
        cols_ = std::exchange(other.cols_, 0);
        data_ = std::move(other.data_);
        return *this;
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return rows_ * cols_; }

    T&
    at(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    const T&
    at(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    T& operator()(std::size_t r, std::size_t c) { return at(r, c); }
    const T&
    operator()(std::size_t r, std::size_t c) const
    {
        return at(r, c);
    }

    /** Pointer to the first element of row @p r. */
    T* row_data(std::size_t r) { return data_.get() + r * cols_; }
    const T*
    row_data(std::size_t r) const
    {
        return data_.get() + r * cols_;
    }

    /** The rows * cols elements, row-major. */
    ElementSpan<T> data() { return {data_.get(), size()}; }
    ElementSpan<const T>
    data() const
    {
        return {data_.get(), size()};
    }

    friend bool
    operator==(const Matrix& a, const Matrix& b)
    {
        return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
               a.data() == b.data();
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    /** The first element; shares ownership of the whole block. */
    std::shared_ptr<T[]> data_;
};

using MatrixF = Matrix<float>;
using MatrixI = Matrix<int>;

}  // namespace support
}  // namespace mugi

#endif  // MUGI_SUPPORT_MATRIX_H_
