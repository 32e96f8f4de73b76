// Reusable Matrix scratch pool for allocation-free hot paths.
//
// The serving layer's plan-compute path (PredictionModel::predict, the MLP
// forward chain, the whitened Mahalanobis distances) needs a handful of
// temporary matrices per request. A Workspace owns those buffers and hands
// them out as RAII leases: the first pass through a code path grows the pool
// ("warmup"); every later pass reshapes pooled buffers in place, so the
// steady state does no matrix heap traffic. Matrix::reshape() reuses vector
// capacity, which is what makes the reuse allocation-free.
//
// Lifecycle: one Workspace per worker thread, living as long as the worker.
// A Workspace is NOT thread-safe — it must never be shared across threads.
// Leases return their buffer to the pool on destruction (LIFO-ish usage
// expected, but any order is correct); a lease must not outlive its
// Workspace.
#pragma once

#include "linalg/matrix.hpp"

#include <cstddef>
#include <memory>
#include <vector>

namespace powerlens::linalg {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // RAII handle to a pooled scratch matrix. Move-only; returns the buffer
  // to the pool when destroyed.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : ws_(other.ws_), m_(std::move(other.m_)) {
      other.ws_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (ws_ != nullptr) ws_->release(std::move(m_));
    }

    Matrix& operator*() noexcept { return *m_; }
    Matrix* operator->() noexcept { return m_.get(); }
    const Matrix& operator*() const noexcept { return *m_; }
    const Matrix* operator->() const noexcept { return m_.get(); }
    Matrix& get() noexcept { return *m_; }

   private:
    friend class Workspace;
    Lease(Workspace* ws, std::unique_ptr<Matrix> m)
        : ws_(ws), m_(std::move(m)) {}
    Workspace* ws_;
    std::unique_ptr<Matrix> m_;
  };

  // A rows x cols scratch matrix, zero-filled. Reuses the pooled buffer
  // whose capacity fits best; allocates only when no pooled buffer fits
  // (which stops happening once the pool has warmed up).
  Lease lease(std::size_t rows, std::size_t cols);

  // Like lease(), but the buffer's contents are UNSPECIFIED (stale pool
  // data or never-written memory) instead of zero-filled — for scratch
  // whose consumed region the caller fully overwrites, e.g. the triangular
  // distance pipeline's Gram and blend buffers. No element is written,
  // also when the lease grows a buffer (Matrix::reshape_no_fill).
  Lease lease_uninit(std::size_t rows, std::size_t cols);

  // Buffers currently sitting in the pool (not leased out).
  std::size_t pooled() const noexcept { return pool_.size(); }
  // Doubles of capacity across pooled buffers — stable once warmed up.
  std::size_t pooled_capacity() const noexcept;
  // Buffers created over the workspace's lifetime (leased or pooled).
  std::size_t created() const noexcept { return created_; }

 private:
  Lease lease_impl(std::size_t rows, std::size_t cols, bool zero_fill);
  void release(std::unique_ptr<Matrix> m);

  std::vector<std::unique_ptr<Matrix>> pool_;
  std::size_t created_ = 0;
};

}  // namespace powerlens::linalg
