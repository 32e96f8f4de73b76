// Dense row-major matrix of doubles.
//
// This is the minimal linear-algebra substrate PowerLens needs: covariance
// matrices of layer-feature tables, their pseudo-inverses (for the Mahalanobis
// distance of Algorithm 1), and the dense algebra inside the prediction-model
// trainer. Products route through the blocked kernels in linalg/kernels.hpp;
// the class itself stays a plain storage-and-shape type.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace powerlens::linalg {

namespace detail {

// std::allocator whose value-less construct() default-initializes: vector
// growth through resize() leaves doubles unwritten instead of zeroing them
// (Matrix::reshape_no_fill's contract). Every other Matrix construction
// path passes an explicit value, so only that one call changes behaviour.
template <class T>
struct NoFillAllocator : std::allocator<T> {
  NoFillAllocator() = default;
  template <class U>
  NoFillAllocator(const NoFillAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

class Matrix {
 public:
  Matrix() = default;
  // Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  // Creates a matrix from nested initializer lists; all rows must have the
  // same length. Throws std::invalid_argument on ragged input.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  // Builds a matrix from a flat row-major buffer. Throws if sizes mismatch.
  static Matrix from_rows(std::size_t rows, std::size_t cols,
                          std::span<const double> data);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }
  bool square() const noexcept { return rows_ == cols_; }
  // Doubles the backing store can hold without reallocating.
  std::size_t capacity() const noexcept { return data_.capacity(); }

  // Re-dimensions the matrix to rows x cols with every element set to
  // `fill`. Reuses the backing store when rows * cols fits its capacity —
  // the Workspace scratch-pool contract relies on this staying
  // allocation-free after warmup.
  void reshape(std::size_t rows, std::size_t cols, double fill = 0.0);
  // Re-dimensions WITHOUT writing any element: existing elements keep
  // whatever values the buffer held (in flat row-major order) and growth
  // is left uninitialized — also past the old size within the capacity,
  // so a pooled buffer regrown this way is never touched. For outputs
  // whose consumed region is fully overwritten next — skips the
  // O(rows·cols) refill reshape() pays.
  void reshape_no_fill(std::size_t rows, std::size_t cols);

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  // Bounds-checked access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);

  std::span<const double> data() const noexcept { return data_; }
  std::span<double> data() noexcept { return data_; }

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) noexcept { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) noexcept { return rhs *= s; }

  // Matrix product; throws std::invalid_argument on dimension mismatch.
  friend Matrix operator*(const Matrix& lhs, const Matrix& rhs);

  bool operator==(const Matrix& rhs) const noexcept = default;

  // Max |a_ij - b_ij|; matrices must have identical shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  // Frobenius norm.
  double frobenius_norm() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, detail::NoFillAllocator<double>> data_;
};

}  // namespace powerlens::linalg
