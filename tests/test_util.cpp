// Unit tests for Table, CsvWriter, Cli, unit formatting and Memo.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/memo.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace hbsp::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table table{"demo"};
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::ostringstream out;
  table.render(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(text.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table table{"t"};
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  Table table{"t"};
  EXPECT_THROW(table.set_header({}), std::invalid_argument);
}

TEST(Table, RejectsHeaderAfterRows) {
  Table table{"t"};
  table.set_header({"a"});
  table.add_row({"1"});
  EXPECT_THROW(table.set_header({"b"}), std::logic_error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<long long>(-42)), "-42");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRowsToFile) {
  const std::string path = testing::TempDir() + "hbspk_csv_test.csv";
  {
    CsvWriter csv{path};
    csv.write_row({"a", "b,c"});
    csv.write_row({"1", "2"});
  }
  std::ifstream in{path};
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "a,\"b,c\"\n1,2\n");
  std::remove(path.c_str());
}

TEST(Cli, ParsesAllFlagForms) {
  // --gamma is trailing, so it is a bare boolean; "pos" right after --beta's
  // value is positional.
  const char* argv[] = {"prog", "--alpha=1", "--beta", "2", "pos", "--gamma"};
  Cli cli{6, argv};
  cli.allow("alpha").allow("beta").allow("gamma");
  cli.validate();
  EXPECT_EQ(cli.get_int("alpha", 0), 1);
  EXPECT_EQ(cli.get("beta", ""), "2");
  EXPECT_TRUE(cli.get_bool("gamma", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, RejectsUnknownFlags) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli{2, argv};
  cli.allow("fine");
  EXPECT_THROW(cli.validate(), std::invalid_argument);
}

TEST(Cli, PositiveIntAcceptsThreadsValues) {
  const char* argv[] = {"prog", "--threads=4", "--big", "123456"};
  Cli cli{4, argv};
  EXPECT_EQ(cli.get_positive_int("threads", 1), 4);
  EXPECT_EQ(cli.get_positive_int("big", 1), 123456);
  EXPECT_EQ(cli.get_positive_int("absent", 3), 3);  // fallback when missing
}

TEST(Cli, PositiveIntRejectsZero) {
  const char* argv[] = {"prog", "--threads=0"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_int("threads", 1), std::invalid_argument);
}

TEST(Cli, PositiveIntRejectsNegatives) {
  const char* argv[] = {"prog", "--threads=-2"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_int("threads", 1), std::invalid_argument);
}

TEST(Cli, PositiveIntRejectsNonNumeric) {
  for (const char* bad : {"--threads=four", "--threads=4x", "--threads=",
                          "--threads= 4", "--threads=4.5"}) {
    const char* argv[] = {"prog", bad};
    Cli cli{2, argv};
    EXPECT_THROW((void)cli.get_positive_int("threads", 1),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Cli, PositiveIntRejectsBareBooleanForm) {
  // A trailing `--threads` parses as the boolean "true", which is not a
  // thread count.
  const char* argv[] = {"prog", "--threads"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_int("threads", 1), std::invalid_argument);
}

TEST(Cli, PositiveIntRejectsOverflow) {
  const char* argv[] = {"prog", "--threads=99999999999999999999999999"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_int("threads", 1), std::invalid_argument);
}

TEST(Cli, PositiveDoubleAcceptsRates) {
  const char* argv[] = {"prog", "--qps=250.5", "--duration", "0.25"};
  Cli cli{4, argv};
  EXPECT_DOUBLE_EQ(cli.get_positive_double("qps", 1.0), 250.5);
  EXPECT_DOUBLE_EQ(cli.get_positive_double("duration", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_positive_double("absent", 3.5), 3.5);
}

TEST(Cli, PositiveDoubleRejectsNonPositiveAndJunk) {
  for (const char* bad : {"--qps=0", "--qps=-1.5", "--qps=fast", "--qps=2x",
                          "--qps=", "--qps=nan", "--qps=inf"}) {
    const char* argv[] = {"prog", bad};
    Cli cli{2, argv};
    EXPECT_THROW((void)cli.get_positive_double("qps", 1.0),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Cli, PositiveDoubleRejectsBareBooleanForm) {
  const char* argv[] = {"prog", "--qps"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_double("qps", 1.0),
               std::invalid_argument);
}

TEST(Cli, DefaultsApplyWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli{1, argv};
  EXPECT_EQ(cli.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("absent", 2.5), 2.5);
  EXPECT_FALSE(cli.get_bool("absent", false));
  EXPECT_FALSE(cli.has("absent"));
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(999), "999 B");
  EXPECT_EQ(format_bytes(1500), "1.5 KB");
  EXPECT_EQ(format_bytes(2'000'000), "2.0 MB");
  EXPECT_EQ(format_bytes(3'100'000'000ULL), "3.1 GB");
}

TEST(Units, FormatTimePicksScale) {
  EXPECT_EQ(format_time(2.0), "2.000 s");
  EXPECT_EQ(format_time(0.0025), "2.500 ms");
  EXPECT_EQ(format_time(2.5e-6), "2.500 us");
  EXPECT_EQ(format_time(5e-9), "5.0 ns");
}

TEST(Units, IntsInKbytes) {
  // The paper's problem size: 100 KB of 4-byte integers.
  EXPECT_EQ(ints_in_kbytes(100), 25000u);
  EXPECT_EQ(ints_in_kbytes(1000), 250000u);
}

TEST(Memo, ConcurrentCallersShareOneCompute) {
  Memo<int, int> memo;
  std::atomic<int> computes{0};
  std::promise<void> go;
  const std::shared_future<void> start = go.get_future().share();
  std::vector<std::shared_ptr<const int>> results(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      start.wait();
      results[t] = memo.get(1, [&] {
        ++computes;
        // Long enough that the other callers arrive while it is in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 42;
      });
    });
  }
  go.set_value();
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(computes.load(), 1);
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result, results.front());
  }
  EXPECT_EQ(*results.front(), 42);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(Memo, ThrowingComputeLeavesNoEntryAndAWaiterComputes) {
  Memo<int, int> memo;
  EXPECT_THROW(
      (void)memo.get(1, []() -> int { throw std::runtime_error{"x"}; }),
      std::runtime_error);
  EXPECT_EQ(memo.size(), 0u);

  // A caller waiting on a compute that throws is woken and computes itself;
  // only the thrower sees the error.
  std::promise<void> started;
  std::promise<void> release;
  std::future<void> has_started = started.get_future();
  std::future<void> released = release.get_future();
  std::thread thrower{[&] {
    EXPECT_THROW((void)memo.get(2,
                                [&]() -> int {
                                  started.set_value();
                                  released.wait();
                                  throw std::runtime_error{"rejected"};
                                }),
                 std::runtime_error);
  }};
  has_started.wait();
  std::atomic<int> waiter_computes{0};
  std::thread waiter{[&] {
    const auto value = memo.get(2, [&] {
      ++waiter_computes;
      return 7;
    });
    EXPECT_EQ(*value, 7);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();
  thrower.join();
  waiter.join();
  EXPECT_EQ(waiter_computes.load(), 1);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(Memo, ClearKeepsEntriesInFlight) {
  Memo<int, int> memo;
  const auto finished = memo.get(1, [] { return 1; });
  std::promise<void> started;
  std::promise<void> release;
  std::future<void> has_started = started.get_future();
  std::future<void> released = release.get_future();
  std::shared_ptr<const int> in_flight;
  std::thread builder{[&] {
    in_flight = memo.get(2, [&] {
      started.set_value();
      released.wait();
      return 2;
    });
  }};
  has_started.wait();
  memo.clear();
  EXPECT_EQ(memo.size(), 1u);  // the finished entry went, the build stayed
  release.set_value();
  builder.join();

  // The compute that was in flight during clear() still owns its entry, and
  // the pointer handed out before clear() stays valid.
  EXPECT_EQ(memo.get(2, [] { return -1; }), in_flight);
  EXPECT_EQ(*finished, 1);
  EXPECT_NE(memo.get(1, [] { return 1; }), finished);
}

}  // namespace
}  // namespace hbsp::util
