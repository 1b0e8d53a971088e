#include "pablo/sddf.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace paraio::pablo {
namespace {

Trace sample_trace() {
  Trace t;
  t.on_file(1, "/input/mesh.dat");
  t.on_file(2, "/scratch/quad.0");
  IoEvent e;
  e.timestamp = 1.25;
  e.duration = 0.0625;
  e.node = 7;
  e.file = 1;
  e.op = Op::kRead;
  e.offset = 4096;
  e.requested = 2048;
  e.transferred = 2048;
  e.mode = io::AccessMode::kUnix;
  t.on_event(e);
  e.timestamp = 3.141592653589793;  // exercise exact double round trip
  e.op = Op::kAsyncWrite;
  e.mode = io::AccessMode::kRecord;
  e.file = 2;
  e.transferred = 17;
  t.on_event(e);
  e.op = Op::kIoWait;
  e.duration = 1e-9;
  t.on_event(e);
  return t;
}

TEST(Sddf, RoundTripIsLossless) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  write_trace(buffer, original);
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(original, loaded);
}

TEST(Sddf, HeaderIsSelfDescribing) {
  std::stringstream buffer;
  write_trace(buffer, sample_trace());
  std::string line;
  std::getline(buffer, line);
  EXPECT_EQ(line, "#SDDF-ASCII paraio-io-trace 1");
  std::getline(buffer, line);
  EXPECT_TRUE(line.starts_with("#record IoEvent"));
}

TEST(Sddf, FileRegistryPreserved) {
  std::stringstream buffer;
  write_trace(buffer, sample_trace());
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(loaded.file_name(1), "/input/mesh.dat");
  EXPECT_EQ(loaded.file_name(2), "/scratch/quad.0");
}

TEST(Sddf, EmptyTraceRoundTrips) {
  Trace empty;
  std::stringstream buffer;
  write_trace(buffer, empty);
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(empty, loaded);
}

TEST(Sddf, BadMagicThrows) {
  std::stringstream buffer("#not-a-trace\n");
  EXPECT_THROW(read_trace(buffer), std::runtime_error);
}

TEST(Sddf, TruncatedRecordThrows) {
  std::stringstream buffer;
  buffer << "#SDDF-ASCII paraio-io-trace 1\n"
         << "E 0x0p+0 0x0p+0 1 1 read\n";  // missing fields
  EXPECT_THROW(read_trace(buffer), std::runtime_error);
}

TEST(Sddf, UnknownOpTokenThrows) {
  std::stringstream buffer;
  buffer << "#SDDF-ASCII paraio-io-trace 1\n"
         << "E 0x0p+0 0x0p+0 1 1 frobnicate 0 0 0 unix\n";
  EXPECT_THROW(read_trace(buffer), std::runtime_error);
}

TEST(Sddf, UnknownDirectiveSkipped) {
  std::stringstream buffer;
  buffer << "#SDDF-ASCII paraio-io-trace 1\n"
         << "#future-extension foo bar\n"
         << "E 0x0p+0 0x1p+0 1 1 read 0 8 8 unix\n";
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(loaded.size(), 1u);
}

TEST(Sddf, AllOpTokensRoundTrip) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(op_from_token(op_token(op)), op);
  }
}

TEST(Sddf, AllModeTokensRoundTrip) {
  for (int i = 0; i < 6; ++i) {
    const auto mode = static_cast<io::AccessMode>(i);
    EXPECT_EQ(mode_from_token(mode_token(mode)), mode);
  }
}

TEST(Sddf, FileIoRoundTrip) {
  const Trace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/paraio_trace_test.sddf";
  write_trace_file(path, original);
  const Trace loaded = read_trace_file(path);
  EXPECT_EQ(original, loaded);
}

TEST(Sddf, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/paraio.sddf"),
               std::runtime_error);
}

// --- reader strictness ----------------------------------------------------

// Loads a trace whose one record is `record` (on line 3, after a #file
// line) and expects it rejected with an error naming that line and text.
void expect_rejected(const std::string& record) {
  std::stringstream buffer;
  buffer << "#SDDF-ASCII paraio-io-trace 1\n#file 1 /a\n" << record << '\n';
  try {
    (void)read_trace(buffer);
    ADD_FAILURE() << "accepted: " << record;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find(record), std::string::npos) << what;
  }
}

TEST(Sddf, NegativeIntegerFieldThrows) {
  expect_rejected("E 0x0p+0 0x0p+0 -1 1 read 0 8 8 unix");
  expect_rejected("E 0x0p+0 0x0p+0 1 -1 read 0 8 8 unix");
  expect_rejected("E 0x0p+0 0x0p+0 1 1 read -4096 8 8 unix");
  expect_rejected("E 0x0p+0 0x0p+0 1 1 read 0 -8 8 unix");
  expect_rejected("E 0x0p+0 0x0p+0 1 1 read 0 8 -8 unix");
}

TEST(Sddf, NodeOrFilePastU32Throws) {
  expect_rejected("E 0x0p+0 0x0p+0 4294967296 1 read 0 8 8 unix");
  expect_rejected("E 0x0p+0 0x0p+0 1 4294967297 read 0 8 8 unix");
}

TEST(Sddf, NonFiniteTimestampThrows) {
  expect_rejected("E nan 0x0p+0 1 1 read 0 8 8 unix");
  expect_rejected("E inf 0x0p+0 1 1 read 0 8 8 unix");
  expect_rejected("E -inf 0x0p+0 1 1 read 0 8 8 unix");
}

TEST(Sddf, NegativeOrNonFiniteDurationThrows) {
  expect_rejected("E 0x0p+0 -0x1p-10 1 1 read 0 8 8 unix");
  expect_rejected("E 0x0p+0 nan 1 1 read 0 8 8 unix");
  expect_rejected("E 0x0p+0 inf 1 1 read 0 8 8 unix");
}

TEST(Sddf, ExtraFieldsAfterModeThrow) {
  expect_rejected("E 0x0p+0 0x0p+0 1 1 read 0 8 8 unix 42");
}

TEST(Sddf, DecimalAndUppercaseHexTimestampsLoad) {
  std::stringstream buffer;
  buffer << "#SDDF-ASCII paraio-io-trace 1\n"
         << "E 1.5 0x0p+0 1 1 read 0 8 8 unix\n"
         << "E 0X1.8P+0 0x0p+0 1 1 read 0 8 8 unix\n";
  const Trace loaded = read_trace(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0].timestamp, 1.5);
  EXPECT_EQ(loaded.events()[1].timestamp, 1.5);
}

// --- the block line reader -------------------------------------------------

// `n` events behind one #file line: their text spans several of the
// reader's 64 KiB blocks, so records straddle block boundaries.
Trace long_trace(int n) {
  Trace t;
  t.on_file(1, "/a");
  IoEvent e;
  e.file = 1;
  for (int i = 0; i < n; ++i) {
    e.timestamp = i * 0.001;
    e.node = static_cast<io::NodeId>(i % 512);
    e.offset = static_cast<std::uint64_t>(i) * 512;
    e.requested = e.transferred = 512;
    t.on_event(e);
  }
  return t;
}

TEST(Sddf, TraceSpanningManyBlocksRoundTrips) {
  const Trace original = long_trace(20000);
  std::stringstream buffer;
  write_trace(buffer, original);
  ASSERT_GT(buffer.str().size(), 4u * 64 * 1024);
  EXPECT_EQ(read_trace(buffer), original);
}

TEST(Sddf, LineLongerThanReadBlockLoads) {
  const std::string path = "/" + std::string(200 * 1024, 'p');
  Trace original = sample_trace();
  original.on_file(9, path);
  std::stringstream buffer;
  write_trace(buffer, original);
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(loaded.file_name(9), path);
  EXPECT_EQ(loaded, original);
}

TEST(Sddf, FinalLineWithoutNewlineLoads) {
  std::stringstream buffer(
      "#SDDF-ASCII paraio-io-trace 1\nE 0x0p+0 0x1p+0 1 1 read 0 8 8 unix");
  EXPECT_EQ(read_trace(buffer).size(), 1u);
  std::stringstream magic_only("#SDDF-ASCII paraio-io-trace 1");
  EXPECT_TRUE(read_trace(magic_only).empty());
}

TEST(Sddf, BlankLinesAndCarriageReturns) {
  std::stringstream buffer(
      "#SDDF-ASCII paraio-io-trace 1\n\n\n#file 3 /c\r\n"
      "E 0x0p+0 0x1p+0 1 3 read 0 8 8 unix\r\n\n");
  const Trace loaded = read_trace(buffer);
  EXPECT_EQ(loaded.size(), 1u);    // '\r' before '\n' is field whitespace
  EXPECT_EQ(loaded.file_name(3), "/c\r");  // but part of a #file path
  std::stringstream crlf_magic("#SDDF-ASCII paraio-io-trace 1\r\n");
  EXPECT_THROW(read_trace(crlf_magic), std::runtime_error);
}

TEST(Sddf, EmptyOrFailedStreamIsBadMagic) {
  std::stringstream empty;
  EXPECT_THROW(read_trace(empty), std::runtime_error);
  std::stringstream failed("#SDDF-ASCII paraio-io-trace 1\n");
  failed.setstate(std::ios::failbit);
  EXPECT_THROW(read_trace(failed), std::runtime_error);
}

TEST(Sddf, ErrorPastFirstBlockNamesItsLine) {
  std::stringstream buffer;
  write_trace(buffer, long_trace(20000));
  buffer << "E 0x0p+0 0x0p+0 1 1 read 0 8 8 bogus\n";
  // magic, #record, #file, then 20000 records: the bad one is line 20004.
  try {
    (void)read_trace(buffer);
    ADD_FAILURE() << "accepted a bad mode token";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace line 20004: unknown mode token: "
                        "E 0x0p+0 0x0p+0 1 1 read 0 8 8 bogus"),
              std::string::npos)
        << what;
  }
}

// --- the f64 codec ----------------------------------------------------------

std::string format(double v) {
  char buf[32];
  return {buf, format_trace_double(v, buf)};
}

std::string snprintf_a(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Seeded random bit patterns, each also with a random number of low
// mantissa bits cleared so short fractions (trailing-zero stripping) are
// covered as densely as full ones; then the special values.
std::vector<double> codec_corpus() {
  std::mt19937_64 rng(0x5DDF);
  std::vector<double> values;
  values.reserve(2'000'016);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    values.push_back(std::bit_cast<double>(bits));
    const unsigned cleared = static_cast<unsigned>(rng() % 53);
    values.push_back(
        std::bit_cast<double>(bits & ~((std::uint64_t{1} << cleared) - 1)));
  }
  using L = std::numeric_limits<double>;
  for (const double v : {0.0, -0.0, L::denorm_min(), -L::denorm_min(),
                         L::min(), -L::min(), L::max(), -L::max(),
                         L::infinity(), -L::infinity(), L::quiet_NaN(),
                         -L::quiet_NaN(), 1.0, -1.0, 1.5, 0.1}) {
    values.push_back(v);
  }
  return values;
}

TEST(Sddf, HexFormatterMatchesSnprintf) {
  std::size_t mismatches = 0;
  for (const double v : codec_corpus()) {
    if (format(v) != snprintf_a(v) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": " << format(v) << " vs " << snprintf_a(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Sddf, HexParserInvertsFormatterBitExactly) {
  std::size_t mismatches = 0;
  for (const double v : codec_corpus()) {
    double back = 0.0;
    const std::string text = format(v);
    const bool ok = parse_trace_double(text, back);
    const bool same = std::isnan(v)
                          ? std::isnan(back)
                          : std::bit_cast<std::uint64_t>(back) ==
                                std::bit_cast<std::uint64_t>(v);
    if ((!ok || !same) && ++mismatches <= 5) {
      ADD_FAILURE() << text << " parsed back as " << format(back);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Sddf, HexParserRejectsMalformedText) {
  for (const char* text : {"", "-", "0x", "0xp+0", "1.5x", "--1", "+-1",
                           "0x1p", "0x1p+", "0x1.8q+0", "0x1.8p+0 "}) {
    double v = 0.0;
    EXPECT_FALSE(parse_trace_double(text, v)) << '"' << text << '"';
  }
}

}  // namespace
}  // namespace paraio::pablo
