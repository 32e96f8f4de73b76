#include "linalg/workspace.hpp"

namespace powerlens::linalg {

Workspace::Lease Workspace::lease(std::size_t rows, std::size_t cols) {
  return lease_impl(rows, cols, /*zero_fill=*/true);
}

Workspace::Lease Workspace::lease_uninit(std::size_t rows,
                                         std::size_t cols) {
  return lease_impl(rows, cols, /*zero_fill=*/false);
}

Workspace::Lease Workspace::lease_impl(std::size_t rows, std::size_t cols,
                                       bool zero_fill) {
  const std::size_t need = rows * cols;
  // Best fit: the smallest pooled buffer that already holds `need` doubles;
  // otherwise the largest pooled buffer (it grows once and then fits).
  std::size_t best = pool_.size();
  std::size_t largest = pool_.size();
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    const std::size_t cap = pool_[i]->capacity();
    if (cap >= need &&
        (best == pool_.size() || cap < pool_[best]->capacity())) {
      best = i;
    }
    if (largest == pool_.size() ||
        cap > pool_[largest]->capacity()) {
      largest = i;
    }
  }
  const std::size_t pick = best != pool_.size() ? best : largest;
  std::unique_ptr<Matrix> m;
  if (pick != pool_.size()) {
    m = std::move(pool_[pick]);
    pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(pick));
  } else {
    m = std::make_unique<Matrix>();
    ++created_;
  }
  if (zero_fill) {
    m->reshape(rows, cols);
  } else {
    m->reshape_no_fill(rows, cols);
  }
  return Lease(this, std::move(m));
}

void Workspace::release(std::unique_ptr<Matrix> m) {
  pool_.push_back(std::move(m));
}

std::size_t Workspace::pooled_capacity() const noexcept {
  std::size_t total = 0;
  for (const auto& m : pool_) total += m->capacity();
  return total;
}

}  // namespace powerlens::linalg
