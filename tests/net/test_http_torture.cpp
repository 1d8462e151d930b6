// net::http request heads under torture: seeded mutations of valid heads
// (byte flips, truncation, CR/LF insertion, duplicated, conflicting and
// overflowing Content-Length, header lines without a colon) through
// find_header_end, parse_request_head, content_length and keep_alive. No
// call may crash, which the ASan/UBSan CI leg turns into a hard failure,
// and every accepted head must reach a fixed point after one
// serialize_request -> parse round trip. Seeded, so a failure reproduces.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "gosh/net/http.hpp"

namespace gosh::net {
namespace {

constexpr int kCases = 20000;

class HeadGenerator {
 public:
  explicit HeadGenerator(std::uint64_t seed) : rng_(seed) {}

  /// A well-formed request head: request line, a few headers, blank line;
  /// CRLF or bare-LF line ends.
  std::string valid() {
    static const char* const kMethods[] = {"GET", "POST", "PUT", "DELETE"};
    static const char* const kTargets[] = {"/v1/query", "/healthz",
                                           "/metrics?x=1", "/"};
    static const char* const kHeaders[] = {
        "Host: localhost",         "Content-Type: application/json",
        "Connection: keep-alive",  "Connection: close",
        "X-Request-Id: abc-123",   "X-Deadline-Ms: 250",
        "Accept: */*",             "Content-Length: 17"};
    eol_ = pick(4) == 0 ? "\n" : "\r\n";
    std::string head = std::string(kMethods[pick(4)]) + " " +
                       kTargets[pick(4)] +
                       (pick(3) == 0 ? " HTTP/1.0" : " HTTP/1.1") + eol_;
    for (int n = pick(5); n > 0; --n) head += kHeaders[pick(8)] + eol_;
    return head + eol_;
  }

  std::string mutate(std::string head) {
    const int rounds = pick(4) == 0 ? 2 + pick(2) : 1;
    for (int r = 0; r < rounds; ++r) {
      switch (pick(8)) {
        case 0:  // flip one byte to an arbitrary value
          if (!head.empty())
            head[pick(head.size())] = static_cast<char>(rng_() % 256);
          break;
        case 1:  // truncate
          head.resize(pick(head.size() + 1));
          break;
        case 2: {  // insert CR, LF or CRLF
          static const char* const kBreaks[] = {"\r", "\n", "\r\n"};
          head.insert(pick(head.size() + 1), kBreaks[pick(3)]);
          break;
        }
        case 3:  // duplicated Content-Length
          insert_header(head, "Content-Length: 17");
          insert_header(head, "content-length: 17");
          break;
        case 4:  // conflicting Content-Length
          insert_header(head, "Content-Length: 17");
          insert_header(head, "Content-Length: 18");
          break;
        case 5: {  // overflowing or malformed Content-Length
          static const char* const kLengths[] = {
              "Content-Length: 99999999999999999999999",
              "Content-Length: 18446744073709551616",
              "Content-Length: 18446744073709551615", "Content-Length: -1",
              "Content-Length: ", "Content-Length: 1 7", "Content-Length: 0x10"};
          insert_header(head, kLengths[pick(7)]);
          break;
        }
        case 6: {  // header lines without a colon, or with an empty name
          static const char* const kLines[] = {"Bogus header line", ": v",
                                               "\r: v", " \t: v", "NoColon"};
          insert_header(head, kLines[pick(5)]);
          break;
        }
        default:  // delete one byte
          if (!head.empty()) head.erase(pick(head.size()), 1);
          break;
      }
    }
    return head;
  }

 private:
  int pick(std::size_t n) { return static_cast<int>(rng_() % n); }

  /// Inserts `line` after the request line (or at the front when there is
  /// none left).
  void insert_header(std::string& head, const std::string& line) {
    const std::size_t first = head.find('\n');
    const std::size_t at = first == std::string::npos ? 0 : first + 1;
    head.insert(at, line + eol_);
  }

  std::mt19937_64 rng_;
  std::string eol_ = "\r\n";
};

TEST(HttpHeadTorture, ValidHeadsParseAndRoundTrip) {
  HeadGenerator gen(918273);
  for (int i = 0; i < 2000; ++i) {
    const std::string buffer = gen.valid();
    const std::size_t end = find_header_end(buffer);
    ASSERT_EQ(end, buffer.size()) << buffer;
    HttpRequest request;
    ASSERT_TRUE(parse_request_head(buffer, request).is_ok()) << buffer;
    EXPECT_TRUE(content_length(request.headers).ok()) << buffer;
  }
}

TEST(HttpHeadTorture, MutatedHeadsNeverCrashAndRoundTripToAFixedPoint) {
  HeadGenerator gen(20261018);
  int rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string buffer = gen.mutate(gen.valid());
    const std::size_t end = find_header_end(buffer);
    ASSERT_TRUE(end == std::string_view::npos || end <= buffer.size());
    const std::string_view head =
        std::string_view(buffer).substr(0, end);  // npos = whole buffer
    HttpRequest request;
    if (!parse_request_head(head, request).is_ok()) {
      ++rejected;
      continue;
    }
    const auto length = content_length(request.headers);
    const bool keep_alive = request.keep_alive();
    (void)request.path();

    // One round trip reaches the fixed point: re-serializing the reparsed
    // request reproduces the first serialization byte for byte.
    const std::string once = serialize_request(request, keep_alive);
    ASSERT_EQ(find_header_end(once), once.size())
        << "case " << i << "\nhead: " << testing::PrintToString(buffer);
    HttpRequest reparsed;
    ASSERT_TRUE(parse_request_head(once, reparsed).is_ok())
        << "case " << i << " accepted a head whose serialization does not "
        << "parse\nhead: " << testing::PrintToString(buffer)
        << "\nonce: " << testing::PrintToString(once);
    EXPECT_EQ(serialize_request(reparsed, reparsed.keep_alive()), once)
        << "case " << i << "\nhead: " << testing::PrintToString(buffer);
    EXPECT_EQ(reparsed.keep_alive(), keep_alive) << "case " << i;
    const auto relength = content_length(reparsed.headers);
    ASSERT_EQ(relength.ok(), length.ok()) << "case " << i;
    if (length.ok() && relength.ok()) {
      EXPECT_EQ(relength.value(), length.value()) << "case " << i;
    }
  }
  // Most mutations must be refused; a permissive regression craters this.
  EXPECT_GT(rejected, kCases / 10) << rejected;
}

TEST(HttpHeadTorture, ContentLengthEdgesAreRejectedNotWrapped) {
  const auto length_of = [](const char* value) {
    return content_length({{"Content-Length", value}});
  };
  EXPECT_EQ(length_of("18446744073709551615").value(),
            std::size_t{18446744073709551615ull});
  EXPECT_FALSE(length_of("18446744073709551616").ok());
  EXPECT_FALSE(length_of("99999999999999999999999").ok());
  EXPECT_FALSE(length_of("-1").ok());
  EXPECT_FALSE(length_of("").ok());
  EXPECT_FALSE(length_of("1 7").ok());
  EXPECT_FALSE(
      content_length({{"Content-Length", "17"}, {"content-length", "18"}})
          .ok());
  EXPECT_EQ(
      content_length({{"Content-Length", "17"}, {"content-length", "17"}})
          .value(),
      17u);
}

TEST(HttpHeadTorture, HeaderLinesWithoutANameAreRejected) {
  HttpRequest request;
  for (const char* head :
       {"GET / HTTP/1.1\r\nNoColon\r\n\r\n", "GET / HTTP/1.1\r\n: v\r\n\r\n",
        "GET / HTTP/1.1\r\n\r: v\r\n\r\n", "GET / HTTP/1.1\r\n\r\t: v\r\n\r\n"}) {
    EXPECT_FALSE(parse_request_head(head, request).is_ok())
        << testing::PrintToString(std::string(head));
  }
}

}  // namespace
}  // namespace gosh::net
