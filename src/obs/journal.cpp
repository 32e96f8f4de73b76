#include "obs/journal.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <sstream>

namespace powerlens::obs {

namespace {

std::uint64_t next_journal_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Journal::Journal(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), id_(next_journal_id()) {}

Journal::Shard& Journal::local_shard() {
  // Keyed by the journal's process-unique id, not its address, so a shard
  // cached for a destroyed journal can never be revived by address reuse.
  // A journal must outlive every append made to it (the server joins
  // workers before serve() returns; the default journal is a leaked
  // static); a thread that outlives the journal only runs the exit hook,
  // which finds the shard gone.
  struct Cached {
    std::uint64_t id;
    Shard* shard;                // hot path; valid while the journal lives
    std::weak_ptr<Shard> owner;  // exit hook; expires with the journal
  };
  struct Cache {
    std::vector<Cached> entries;
    ~Cache() {
      // Thread exit: hand every shard this thread appended to back to its
      // journal for reclaiming.
      for (const Cached& e : entries) {
        if (const std::shared_ptr<Shard> shard = e.owner.lock()) {
          shard->orphaned.store(true, std::memory_order_release);
        }
      }
    }
  };
  thread_local Cache cache;
  for (const Cached& e : cache.entries) {
    if (e.id == id_) return *e.shard;
  }
  std::erase_if(cache.entries,
                [](const Cached& e) { return e.owner.expired(); });
  auto shard = std::make_shared<Shard>();
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    reclaim_orphans_locked();
    shards_.push_back(shard);
  }
  cache.entries.push_back({id_, shard.get(), shard});
  return *shard;
}

void Journal::reclaim_orphans_locked() {
  std::erase_if(shards_, [this](const std::shared_ptr<Shard>& shard) {
    if (!shard->orphaned.load(std::memory_order_acquire)) return false;
    // The owning thread has exited, so nothing appends here any more; its
    // records stay resident in the retired pool until compaction.
    std::lock_guard<std::mutex> slock(shard->mu);
    retired_.insert(retired_.end(),
                    std::make_move_iterator(shard->ring.begin()),
                    std::make_move_iterator(shard->ring.end()));
    return true;
  });
}

void Journal::append(std::uint64_t run, std::uint64_t task, std::uint32_t seq,
                     std::string_view event, std::string_view fields) {
  if (!enabled()) return;
  Record rec;
  rec.run = run;
  rec.task = task;
  rec.seq = seq;
  rec.line.reserve(fields.size() + event.size() + 64);
  rec.line += "{\"run\": ";
  append_json_number(rec.line, static_cast<double>(run));
  rec.line += ", \"task\": ";
  append_json_number(rec.line, static_cast<double>(task));
  rec.line += ", \"seq\": ";
  append_json_number(rec.line, static_cast<double>(seq));
  rec.line += ", \"event\": \"";
  append_json_escaped(rec.line, event);
  rec.line += '"';
  if (!fields.empty()) {
    rec.line += ", ";
    rec.line += fields;
  }
  rec.line += '}';

  Shard& shard = local_shard();
  bool over_budget = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.ring.size() < capacity_) {
      shard.ring.push_back(std::move(rec));
      over_budget = resident_.fetch_add(1, std::memory_order_relaxed) + 1 >
                    kCompactFactor * capacity_;
    } else {
      // Per-thread keys are monotone, so the overwrite cursor always points
      // at the shard's oldest record.
      shard.ring[shard.next] = std::move(rec);
      shard.next = (shard.next + 1) % capacity_;
      evicted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  appended_.fetch_add(1, std::memory_order_relaxed);
  if (over_budget) compact();
}

void Journal::compact() {
  std::lock_guard<std::mutex> lock(shards_mu_);
  // Another appender may have compacted while this one waited.
  if (resident_.load(std::memory_order_relaxed) <=
      kCompactFactor * capacity_) {
    return;
  }
  reclaim_orphans_locked();
  // Shard locks are taken one at a time. Live threads keep appending
  // between the two passes, which is harmless: a record below the cut has
  // `capacity_` larger keys in the first pass's snapshot alone.
  std::vector<Record::Key> keys;
  keys.reserve(resident_.load(std::memory_order_relaxed));
  for (const Record& r : retired_) keys.push_back(r.key());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    for (const Record& r : shard->ring) keys.push_back(r.key());
  }
  if (keys.size() <= capacity_) return;
  // The capacity-th largest key: everything below it can never reach the
  // export.
  const auto cut_it =
      keys.begin() + static_cast<std::ptrdiff_t>(keys.size() - capacity_);
  std::nth_element(keys.begin(), cut_it, keys.end());
  const Record::Key cut = *cut_it;
  const auto below = [&](const Record& r) { return r.key() < cut; };
  std::size_t dropped = std::erase_if(retired_, below);
  resident_.fetch_sub(dropped, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    // Linearize the ring oldest-first so appends resume in order.
    std::rotate(shard->ring.begin(),
                shard->ring.begin() + static_cast<std::ptrdiff_t>(shard->next),
                shard->ring.end());
    shard->next = 0;
    const std::size_t n = std::erase_if(shard->ring, below);
    resident_.fetch_sub(n, std::memory_order_relaxed);
    dropped += n;
  }
  evicted_.fetch_add(dropped, std::memory_order_relaxed);
}

std::size_t Journal::resident() const {
  return resident_.load(std::memory_order_relaxed);
}

std::size_t Journal::shards() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  return shards_.size();
}

void Journal::write_jsonl(std::ostream& os) const {
  std::vector<Record> merged;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    merged = retired_;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> slock(shard->mu);
      merged.insert(merged.end(), shard->ring.begin(), shard->ring.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Record& a, const Record& b) { return a.key() < b.key(); });
  // Keep the newest `capacity_` records: everything a shard ring-evicted or
  // compaction dropped is below this cut, so the exported window is
  // worker-layout independent.
  const std::size_t skip =
      merged.size() > capacity_ ? merged.size() - capacity_ : 0;
  for (std::size_t i = skip; i < merged.size(); ++i) {
    os << merged[i].line << '\n';
  }
  std::string meta = "{\"event\": \"journal_meta\", \"records\": ";
  append_json_number(meta, static_cast<double>(merged.size() - skip));
  meta += ", \"appended\": ";
  append_json_number(
      meta, static_cast<double>(appended_.load(std::memory_order_relaxed)));
  meta += ", \"capacity\": ";
  append_json_number(meta, static_cast<double>(capacity_));
  meta += '}';
  os << meta << '\n';
}

std::string Journal::jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return os.str();
}

void Journal::clear() {
  std::lock_guard<std::mutex> lock(shards_mu_);
  resident_.fetch_sub(retired_.size(), std::memory_order_relaxed);
  retired_.clear();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    resident_.fetch_sub(shard->ring.size(), std::memory_order_relaxed);
    shard->ring.clear();
    shard->next = 0;
  }
  appended_.store(0, std::memory_order_relaxed);
  evicted_.store(0, std::memory_order_relaxed);
}

Journal& default_journal() {
  // Leaked so appends from late-exiting threads never race destruction.
  static Journal* journal = new Journal();
  return *journal;
}

}  // namespace powerlens::obs
