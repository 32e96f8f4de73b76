// Bounded, deterministic structured-event journal for the serving path.
//
// The journal records one pre-rendered JSON object per event under a
// (run, task, seq) key — run is claimed per serve() call, task is the
// request id inside the run, seq orders the events of one request. Export
// sorts everything into ascending (run, task, seq) order and emits JSONL.
//
// The export is the top `capacity` keys of everything appended, in key
// order, whatever order or thread the appends came from — so the bytes a
// reader sees are a pure function of the set of keys appended. In the
// serving layer one thread writes per serve: the deterministic fold, which
// also renders each task's attempt records from the workers' results.
//
// Storage is one vector under one mutex. Once it holds more than
// kCompactFactor * capacity records, the appending call trims it to the top
// `capacity` keys: a key below that cut already has `capacity` larger keys
// appended, so it can never be exported. Hence
// resident() <= kCompactFactor * capacity() after every append.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace powerlens::obs {

// Default bound: generous for tests and benches (a serve run emits a handful
// of records per request) while keeping worst-case memory modest.
inline constexpr std::size_t kDefaultJournalCapacity = 16384;

class Journal {
 public:
  // Resident records that trigger compaction down to `capacity`, as a
  // multiple of `capacity`.
  static constexpr std::size_t kCompactFactor = 2;

  explicit Journal(std::size_t capacity = kDefaultJournalCapacity);
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Claims the id for one serve run. Monotone per journal; all records of a
  // run share it so interleaved serve() calls stay separable.
  std::uint64_t begin_run();

  // Appends one record. `fields` is a pre-rendered JSON fragment (the
  // JsonWriter::body() form, no braces, may be empty); the record becomes
  //   {"run": R, "task": T, "seq": S, "event": "<event>", <fields>}
  void append(std::uint64_t run, std::uint64_t task, std::uint32_t seq,
              std::string_view event, std::string_view fields);

  std::size_t capacity() const noexcept { return capacity_; }
  // Records accepted since construction/clear() — deterministic.
  std::uint64_t appended() const;
  // Records currently held; at most kCompactFactor * capacity().
  std::size_t resident() const;

  // Deterministic export: min(appended(), capacity()) records in ascending
  // (run, task, seq) order, one JSON object per line, followed by one
  // `journal_meta` trailer line with deterministic totals.
  void write_jsonl(std::ostream& os) const;
  std::string jsonl() const;

  // Drops all records and resets counters. Run ids keep increasing so keys
  // stay distinct across a clear().
  void clear();

 private:
  struct Record {
    std::tuple<std::uint64_t, std::uint64_t, std::uint32_t> key;
    std::string line;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;  // guards everything below
  std::uint64_t next_run_ = 0;
  std::uint64_t appended_ = 0;
  std::vector<Record> records_;
};

// The process-wide journal the serving layer appends to by default.
// Only materialised into a file when something (the CLI's --journal flag,
// a bench, a test) exports it.
Journal& default_journal();

}  // namespace powerlens::obs
