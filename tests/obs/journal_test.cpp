// obs::Journal: the bounded deterministic event journal.
//
// The load-bearing property is the export contract: the JSONL bytes are the
// top `capacity` keys of the (run, task, seq, event, fields) records
// appended, in key order — never a function of which thread appended them
// or in what order. These tests drive that directly: shuffled and
// multi-threaded append patterns must export byte-identically to their
// in-order single-threaded reference, with and without capacity overflow.
#include "obs/journal.hpp"

#include "support/json_parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace powerlens::obs {
namespace {

using test_support::JsonParser;
using test_support::JsonValue;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(JournalTest, ExportsRecordsInKeyOrderWithMetaTrailer) {
  Journal journal(/*capacity=*/16);
  const std::uint64_t run = journal.begin_run();
  journal.append(run, 2, 1, "request", "\"model\": \"alexnet\"");
  journal.append(run, 3, 1, "request", "");
  const std::string text = journal.jsonl();
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_EQ(lines.size(), 3u);  // 2 records + journal_meta trailer

  const JsonValue first = JsonParser(lines[0]).parse();
  EXPECT_EQ(first.object().at("run").number(), static_cast<double>(run));
  EXPECT_EQ(first.object().at("task").number(), 2.0);
  EXPECT_EQ(first.object().at("seq").number(), 1.0);
  EXPECT_EQ(first.object().at("event").string(), "request");
  EXPECT_EQ(first.object().at("model").string(), "alexnet");

  const JsonValue meta = JsonParser(lines.back()).parse();
  EXPECT_EQ(meta.object().at("event").string(), "journal_meta");
  EXPECT_EQ(meta.object().at("records").number(), 2.0);
  EXPECT_EQ(meta.object().at("appended").number(), 2.0);
  EXPECT_EQ(meta.object().at("capacity").number(), 16.0);
}

TEST(JournalTest, EveryExportedLineIsValidJson) {
  Journal journal;
  const std::uint64_t run = journal.begin_run();
  for (std::uint64_t task = 0; task < 20; ++task) {
    journal.append(run, task, 1, "request",
                   "\"value\": " + std::to_string(task));
  }
  for (const std::string& line : lines_of(journal.jsonl())) {
    EXPECT_NO_THROW(JsonParser(line).parse()) << line;
  }
}

TEST(JournalTest, KeepsTopCapacityRecordsOnOverflow) {
  constexpr std::size_t kCapacity = 8;
  Journal journal(kCapacity);
  const std::uint64_t run = journal.begin_run();
  for (std::uint64_t task = 0; task < 20; ++task) {
    journal.append(run, task, 0, "e", "");
  }
  EXPECT_EQ(journal.appended(), 20u);
  const std::vector<std::string> lines = lines_of(journal.jsonl());
  ASSERT_EQ(lines.size(), kCapacity + 1);  // capacity records + trailer
  // Survivors are the TOP keys: tasks 12..19.
  const JsonValue first = JsonParser(lines.front()).parse();
  EXPECT_EQ(first.object().at("task").number(), 12.0);
  const JsonValue last_record = JsonParser(lines[kCapacity - 1]).parse();
  EXPECT_EQ(last_record.object().at("task").number(), 19.0);
}

// A single thread appending keys in any order keeps exactly the top
// `capacity` keys, and stays within the resident bound after every append.
TEST(JournalTest, AnyAppendOrderExportsTheTopCapacityKeys) {
  constexpr std::size_t kCapacity = 50;
  constexpr std::uint64_t kTasks = 1000;
  Journal reference(kCapacity);
  Journal shuffled(kCapacity);
  const std::uint64_t run = reference.begin_run();
  ASSERT_EQ(shuffled.begin_run(), run);
  std::vector<std::uint64_t> tasks(kTasks);
  for (std::uint64_t task = 0; task < kTasks; ++task) {
    tasks[task] = task;
    reference.append(run, task, 1, "request",
                     "\"task_sq\": " + std::to_string(task * task));
  }
  std::shuffle(tasks.begin(), tasks.end(), std::mt19937_64(17));
  for (const std::uint64_t task : tasks) {
    shuffled.append(run, task, 1, "request",
                    "\"task_sq\": " + std::to_string(task * task));
    ASSERT_LE(shuffled.resident(), Journal::kCompactFactor * kCapacity);
  }
  EXPECT_EQ(shuffled.jsonl(), reference.jsonl());
}

// The core determinism claim: interleaved appends from many threads export
// the same bytes as a single thread appending everything in order.
TEST(JournalTest, MultiThreadedExportMatchesSingleThreadReference) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kTasks = 64;

  Journal reference;
  const std::uint64_t ref_run = reference.begin_run();
  for (std::uint64_t task = 0; task < kTasks; ++task) {
    reference.append(ref_run, task, 1, "request",
                     "\"task_sq\": " + std::to_string(task * task));
  }

  Journal racy;
  const std::uint64_t run = racy.begin_run();
  ASSERT_EQ(run, ref_run);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    // Thread k appends tasks k, k + kThreads, ... — strictly increasing
    // keys per thread, interleaved across threads.
    threads.emplace_back([&racy, run, k] {
      for (std::uint64_t task = k; task < kTasks; task += kThreads) {
        racy.append(run, task, 1, "request",
                    "\"task_sq\": " + std::to_string(task * task));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(racy.jsonl(), reference.jsonl());
}

TEST(JournalTest, MultiThreadedOverflowStillMatchesReference) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kTasks = 100;
  constexpr std::size_t kCapacity = 32;  // forces compaction

  Journal reference(kCapacity);
  const std::uint64_t ref_run = reference.begin_run();
  for (std::uint64_t task = 0; task < kTasks; ++task) {
    reference.append(ref_run, task, 0, "e", "");
  }

  Journal racy(kCapacity);
  const std::uint64_t run = racy.begin_run();
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&racy, run, k] {
      for (std::uint64_t task = k; task < kTasks; task += kThreads) {
        racy.append(run, task, 0, "e", "");
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(racy.jsonl(), reference.jsonl());
}

// Thread churn: many short-lived threads appending round after round must
// keep the journal within its resident bound without changing a byte of
// the export.
TEST(JournalTest, ThreadChurnStaysBoundedAndMatchesReference) {
  constexpr std::size_t kCapacity = 1000;
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 100;
  const auto fields = [](std::uint64_t task) {
    return "\"task_sq\": " + std::to_string(task * task);
  };

  Journal reference(kCapacity);
  Journal churned(kCapacity);
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::uint64_t ref_run = reference.begin_run();
    for (std::uint64_t task = 0; task < kThreads * kPerThread; ++task) {
      reference.append(ref_run, task, 1, "request", fields(task));
    }
    const std::uint64_t run = churned.begin_run();
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < kThreads; ++k) {
      threads.emplace_back([&churned, &fields, run, k] {
        for (std::uint64_t task = k; task < kThreads * kPerThread;
             task += kThreads) {
          churned.append(run, task, 1, "request", fields(task));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    ASSERT_LE(churned.resident(), Journal::kCompactFactor * kCapacity)
        << "round " << round;
  }
  EXPECT_EQ(churned.appended(), kRounds * kThreads * kPerThread);
  EXPECT_EQ(churned.jsonl(), reference.jsonl());
}

// Compaction as the last event: exactly the top `capacity` keys survive,
// so the export equals the reference with nothing appended afterwards.
TEST(JournalTest, CompactionKeepsExactlyTheTopCapacityKeys) {
  constexpr std::size_t kCapacity = 4;
  Journal reference(kCapacity);
  Journal journal(kCapacity);
  const std::uint64_t run = journal.begin_run();
  ASSERT_EQ(reference.begin_run(), run);
  for (std::uint64_t task = 0; task <= 8; ++task) {
    reference.append(run, task, 0, "e", "");
  }
  // Two threads fill 2 * capacity with interleaved keys; a third appends
  // the one record that crosses the compaction threshold.
  const auto append_tasks = [&](std::vector<std::uint64_t> tasks) {
    std::thread([&journal, run, tasks] {
      for (const std::uint64_t task : tasks) {
        journal.append(run, task, 0, "e", "");
      }
    }).join();
  };
  append_tasks({0, 2, 4, 6});
  append_tasks({1, 3, 5, 7});
  EXPECT_EQ(journal.resident(), 2 * kCapacity);
  append_tasks({8});
  EXPECT_EQ(journal.resident(), kCapacity);
  EXPECT_EQ(journal.jsonl(), reference.jsonl());
}

// Many live threads at once, appending far past capacity: compaction keeps
// the total bounded under contention.
TEST(JournalTest, ManyLiveShardsCompactToTheBound) {
  constexpr std::size_t kCapacity = 64;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kTasks = 4000;

  Journal reference(kCapacity);
  const std::uint64_t ref_run = reference.begin_run();
  for (std::uint64_t task = 0; task < kTasks; ++task) {
    reference.append(ref_run, task, 0, "e", "");
  }

  Journal racy(kCapacity);
  const std::uint64_t run = racy.begin_run();
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&racy, run, k] {
      for (std::uint64_t task = k; task < kTasks; task += kThreads) {
        racy.append(run, task, 0, "e", "");
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_LE(racy.resident(), Journal::kCompactFactor * kCapacity);
  EXPECT_EQ(racy.jsonl(), reference.jsonl());
}

TEST(JournalTest, ClearDropsRecordsButRunIdsKeepIncreasing) {
  Journal journal;
  const std::uint64_t first = journal.begin_run();
  journal.append(first, 0, 0, "e", "");
  journal.clear();
  EXPECT_EQ(journal.appended(), 0u);
  EXPECT_EQ(journal.resident(), 0u);
  const std::uint64_t second = journal.begin_run();
  EXPECT_GT(second, first);
  // Post-clear appends still export.
  journal.append(second, 0, 0, "e", "");
  const std::vector<std::string> lines = lines_of(journal.jsonl());
  ASSERT_EQ(lines.size(), 2u);
}

TEST(JournalTest, WriteJsonlMatchesStringForm) {
  Journal journal;
  const std::uint64_t run = journal.begin_run();
  journal.append(run, 1, 1, "request", "\"x\": 1");
  std::ostringstream os;
  journal.write_jsonl(os);
  EXPECT_EQ(os.str(), journal.jsonl());
}

TEST(JournalTest, DefaultJournalIsEnabledSingleton) {
  Journal& a = default_journal();
  Journal& b = default_journal();
  EXPECT_EQ(&a, &b);
  // It accepts appends: the serving layer journals by default.
  const std::uint64_t before = a.appended();
  a.append(a.begin_run(), 0, 0, "e", "");
  EXPECT_EQ(a.appended(), before + 1);
}

}  // namespace
}  // namespace powerlens::obs
