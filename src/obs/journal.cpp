#include "obs/journal.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace powerlens::obs {

Journal::Journal(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::uint64_t Journal::begin_run() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_run_++;
}

void Journal::append(std::uint64_t run, std::uint64_t task, std::uint32_t seq,
                     std::string_view event, std::string_view fields) {
  Record rec{{run, task, seq}, {}};
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

  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(rec));
  ++appended_;
  if (records_.size() > kCompactFactor * capacity_) {
    // Everything below the capacity-th largest key can never be exported.
    const auto cut = records_.end() - static_cast<std::ptrdiff_t>(capacity_);
    std::nth_element(
        records_.begin(), cut, records_.end(),
        [](const Record& a, const Record& b) { return a.key < b.key; });
    records_.erase(records_.begin(), cut);
  }
}

std::uint64_t Journal::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

std::size_t Journal::resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Journal::write_jsonl(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Record*> sorted;
  sorted.reserve(records_.size());
  for (const Record& r : records_) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const Record* a, const Record* b) { return a->key < b->key; });
  const std::size_t skip =
      sorted.size() > capacity_ ? sorted.size() - capacity_ : 0;
  for (std::size_t i = skip; i < sorted.size(); ++i) {
    os << sorted[i]->line << '\n';
  }
  std::string meta = "{\"event\": \"journal_meta\", \"records\": ";
  append_json_number(meta, static_cast<double>(sorted.size() - skip));
  meta += ", \"appended\": ";
  append_json_number(meta, static_cast<double>(appended_));
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
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  appended_ = 0;
}

Journal& default_journal() {
  // Leaked so appends during static destruction never race it.
  static Journal* journal = new Journal();
  return *journal;
}

}  // namespace powerlens::obs
