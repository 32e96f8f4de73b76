// Matrix-valued A·Bᵀ and Aᵀ·B for the kernel suites. The library exposes
// gemm_nt and gemm_tn as raw kernels (the dense layers and the distance
// pipeline call them on their own buffers); these wrappers let the tests
// compare whole products against the reference oracles.
#pragma once

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

#include <stdexcept>

namespace powerlens::testing {

// a · bᵀ; throws std::invalid_argument when a.cols() != b.cols().
inline linalg::Matrix matmul_nt(const linalg::Matrix& a,
                                const linalg::Matrix& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_nt: inner dimension mismatch");
  }
  linalg::Matrix out(a.rows(), b.rows());
  linalg::kernels::gemm_nt(a.rows(), b.rows(), a.cols(), a.data().data(),
                           a.cols(), b.data().data(), b.cols(),
                           out.data().data(), out.cols());
  return out;
}

// aᵀ · b; throws std::invalid_argument when a.rows() != b.rows().
inline linalg::Matrix matmul_tn(const linalg::Matrix& a,
                                const linalg::Matrix& b) {
  linalg::Matrix out;
  linalg::kernels::matmul_tn_into(a, b, out);
  return out;
}

}  // namespace powerlens::testing
