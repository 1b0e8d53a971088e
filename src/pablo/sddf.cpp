#include "pablo/sddf.hpp"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <stdexcept>
#include <vector>

namespace paraio::pablo {

namespace {

constexpr const char* kMagic = "#SDDF-ASCII paraio-io-trace 1";

constexpr std::array<const char*, kOpCount> kOpTokens = {
    "read",  "write", "seek",       "open",        "close",
    "lsize", "flush", "async-read", "async-write", "iowait"};

constexpr std::array<const char*, 6> kModeTokens = {
    "unix", "log", "sync", "record", "global", "async"};

template <std::size_t N>
std::optional<std::size_t> find_token(const std::array<const char*, N>& tokens,
                                      std::string_view token) {
  for (std::size_t i = 0; i < N; ++i) {
    if (token == tokens[i]) return i;
  }
  return std::nullopt;
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// A cursor over the whitespace-separated fields of one line; every error
// names the line number and text.
class LineParser {
 public:
  LineParser(std::size_t number, std::string_view line)
      : number_(number), line_(line), rest_(line) {}

  [[noreturn]] void fail(std::string_view what) const {
    throw std::runtime_error("trace line " + std::to_string(number_) + ": " +
                             std::string(what) + ": " + std::string(line_));
  }

  /// The next field, or an empty view when the line is exhausted.
  std::string_view next() {
    std::size_t n = 0;
    while (n < rest_.size() && is_space(rest_[n])) ++n;
    rest_.remove_prefix(n);
    n = 0;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    const std::string_view f = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return f;
  }

  std::string_view field() {
    const std::string_view f = next();
    if (f.empty()) fail("truncated record");
    return f;
  }

  /// Everything after the last field, leading whitespace included.
  [[nodiscard]] std::string_view rest() const { return rest_; }

  template <typename U>
  U unsigned_field(const char* name) {
    const std::string_view f = field();
    if (f.front() == '-') fail(std::string("negative ") + name);
    U v{};
    const auto [last, ec] = std::from_chars(f.data(), f.data() + f.size(), v);
    if (ec == std::errc::result_out_of_range) {
      fail(std::string(name) + " out of range");
    }
    if (ec != std::errc{} || last != f.data() + f.size()) {
      fail(std::string("bad ") + name);
    }
    return v;
  }

  double double_field(const char* name) {
    double v = 0.0;
    if (!parse_trace_double(field(), v)) fail(std::string("bad ") + name);
    return v;
  }

  template <typename Enum, std::size_t N>
  Enum token_field(const std::array<const char*, N>& tokens,
                   const char* name) {
    const auto i = find_token(tokens, field());
    if (!i) fail(std::string("unknown ") + name + " token");
    return static_cast<Enum>(*i);
  }

 private:
  std::size_t number_;
  std::string_view line_;
  std::string_view rest_;
};

// The lines of a stream, split out of 64 KiB blocks read straight from its
// buffer, as std::getline would split them: '\n' ends a line and is
// dropped, and a final line without one still counts.  A line longer than
// the block grows the block.
class LineReader {
 public:
  explicit LineReader(std::istream& in)
      : buf_(in.good() ? in.rdbuf() : nullptr) {}

  /// The next line, valid until the following call; false at end of input.
  bool next(std::string_view& line) {
    for (;;) {
      const std::string_view rest(block_.data() + begin_, end_ - begin_);
      const std::size_t nl = rest.find('\n');
      if (nl != std::string_view::npos) {
        line = rest.substr(0, nl);
        begin_ += nl + 1;
        return true;
      }
      if (!refill()) break;
    }
    line = std::string_view(block_.data() + begin_, end_ - begin_);
    begin_ = end_;
    return !line.empty();
  }

 private:
  static constexpr std::size_t kBlock = 64 * 1024;

  // Moves the unfinished line to the front of the block and reads after
  // it; false when the stream has nothing more.
  bool refill() {
    if (buf_ == nullptr) return false;
    const std::size_t partial = end_ - begin_;
    if (partial == block_.size()) block_.resize(2 * block_.size());
    std::memmove(block_.data(), block_.data() + begin_, partial);
    begin_ = 0;
    end_ = partial;
    const std::streamsize got =
        buf_->sgetn(block_.data() + partial,
                    static_cast<std::streamsize>(block_.size() - partial));
    if (got <= 0) {
      buf_ = nullptr;
      return false;
    }
    end_ += static_cast<std::size_t>(got);
    return true;
  }

  std::streambuf* buf_;
  std::vector<char> block_ = std::vector<char>(kBlock);
  std::size_t begin_ = 0;  // the unread bytes are block_[begin_, end_)
  std::size_t end_ = 0;
};

IoEvent parse_event(LineParser& p) {
  if (p.field() != "E") p.fail("bad record tag");
  IoEvent e;
  e.timestamp = p.double_field("timestamp");
  if (!std::isfinite(e.timestamp)) p.fail("non-finite timestamp");
  e.duration = p.double_field("duration");
  if (!std::isfinite(e.duration) || e.duration < 0.0) {
    p.fail("negative or non-finite duration");
  }
  e.node = p.unsigned_field<io::NodeId>("node");
  e.file = p.unsigned_field<io::FileId>("file");
  e.op = p.token_field<Op>(kOpTokens, "op");
  e.offset = p.unsigned_field<std::uint64_t>("offset");
  e.requested = p.unsigned_field<std::uint64_t>("requested");
  e.transferred = p.unsigned_field<std::uint64_t>("transferred");
  e.mode = p.token_field<io::AccessMode>(kModeTokens, "mode");
  if (!p.next().empty()) p.fail("extra fields after mode");
  return e;
}

// `#file <id> <path>`: the path is the remainder after one separating
// space, so it may itself contain spaces.
void parse_file_directive(LineParser& p, Trace& trace) {
  const auto id = p.unsigned_field<io::FileId>("file id");
  std::string_view path = p.rest();
  if (path.empty()) p.fail("bad #file directive");
  if (path.front() == ' ') path.remove_prefix(1);
  trace.on_file(id, std::string(path));
}

constexpr std::size_t kWriteChunk = 64 * 1024;
// Room kept free before each E record; the longest one is 156 bytes.
constexpr std::ptrdiff_t kMaxRecord = 256;

char* put_u64(char* p, std::uint64_t v) {
  return std::to_chars(p, p + 20, v).ptr;
}

char* put_token(char* p, const char* token) {
  while (*token != '\0') *p++ = *token++;
  return p;
}

}  // namespace

char* format_trace_double(double v, char* out) {
  char* p = out;
  if (std::signbit(v)) *p++ = '-';
  if (std::isnan(v)) return put_token(p, "nan");
  if (std::isinf(v)) return put_token(p, "inf");
  *p++ = '0';
  *p++ = 'x';
  if (std::fpclassify(v) != FP_SUBNORMAL) {
    return std::to_chars(p, out + 24, std::fabs(v), std::chars_format::hex)
        .ptr;
  }
  // to_chars renormalizes subnormals (0x1.…p-1023 and below); %a writes
  // 0x0.<fraction>p-1022.  Printing the fraction with the implicit bit set
  // gives a leading '1' that becomes the point, then %a's trailing zeros go.
  const std::uint64_t frac =
      std::bit_cast<std::uint64_t>(v) & ((std::uint64_t{1} << 52) - 1);
  *p++ = '0';
  char* point = p;
  p = std::to_chars(p, out + 24, frac | std::uint64_t{1} << 52, 16).ptr;
  *point = '.';
  while (p[-1] == '0') --p;
  return put_token(p, "p-1022");
}

bool parse_trace_double(std::string_view text, double& out) {
  const char* p = text.data();
  const char* end = p + text.size();
  bool negative = false;
  if (p != end && (*p == '-' || *p == '+')) negative = *p++ == '-';
  auto format = std::chars_format::general;
  if (end - p >= 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) {
    p += 2;
    format = std::chars_format::hex;
    if (p == end || (std::isxdigit(static_cast<unsigned char>(*p)) == 0 &&
                     *p != '.')) {
      return false;
    }
  }
  if (p == end || *p == '-' || *p == '+') return false;
  double v = 0.0;
  const auto [last, ec] = std::from_chars(p, end, v, format);
  if (ec != std::errc{} || last != end) return false;
  out = negative ? -v : v;
  return true;
}

const char* op_token(Op op) {
  return kOpTokens[static_cast<std::size_t>(op)];
}

Op op_from_token(const std::string& token) {
  const auto i = find_token(kOpTokens, token);
  if (!i) throw std::runtime_error("unknown op token: " + token);
  return static_cast<Op>(*i);
}

const char* mode_token(io::AccessMode mode) {
  return kModeTokens[static_cast<std::size_t>(mode)];
}

io::AccessMode mode_from_token(const std::string& token) {
  const auto i = find_token(kModeTokens, token);
  if (!i) throw std::runtime_error("unknown mode token: " + token);
  return static_cast<io::AccessMode>(*i);
}

void write_trace(std::ostream& out, const Trace& trace) {
  out << kMagic << '\n';
  out << "#record IoEvent timestamp:f64 duration:f64 node:u32 file:u32 "
         "op:str offset:u64 requested:u64 transferred:u64 mode:str\n";
  for (const auto& [id, path] : trace.files()) {
    out << "#file " << id << ' ' << path << '\n';
  }
  std::array<char, kWriteChunk> buf;
  char* p = buf.data();
  for (const auto& e : trace.events()) {
    if (buf.data() + buf.size() - p < kMaxRecord) {
      out.write(buf.data(), p - buf.data());
      p = buf.data();
    }
    *p++ = 'E';
    *p++ = ' ';
    p = format_trace_double(e.timestamp, p);
    *p++ = ' ';
    p = format_trace_double(e.duration, p);
    *p++ = ' ';
    p = put_u64(p, e.node);
    *p++ = ' ';
    p = put_u64(p, e.file);
    *p++ = ' ';
    p = put_token(p, op_token(e.op));
    *p++ = ' ';
    p = put_u64(p, e.offset);
    *p++ = ' ';
    p = put_u64(p, e.requested);
    *p++ = ' ';
    p = put_u64(p, e.transferred);
    *p++ = ' ';
    p = put_token(p, mode_token(e.mode));
    *p++ = '\n';
  }
  out.write(buf.data(), p - buf.data());
  if (!out) throw std::runtime_error("trace write failed");
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  write_trace(out, trace);
}

Trace read_trace(std::istream& in) {
  Trace trace;
  LineReader lines(in);
  std::string_view line;
  if (!lines.next(line) || line != kMagic) {
    throw std::runtime_error("bad trace magic");
  }
  for (std::size_t number = 2; lines.next(line); ++number) {
    if (line.empty()) continue;
    LineParser p(number, line);
    if (line[0] == '#') {
      if (p.field() == "#file") parse_file_directive(p, trace);
      // Other directives (#record, future extensions) are informative only.
      continue;
    }
    trace.on_event(parse_event(p));
  }
  return trace;
}

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return read_trace(in);
}

}  // namespace paraio::pablo
