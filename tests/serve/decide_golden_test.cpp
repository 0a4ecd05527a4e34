// decide_golden_test.cpp — pins decide_server's answers byte for byte.
//
// The round-trip tests in protocol_test.cpp pass whenever the encoder and
// decoder agree with each other, so a change that alters both sides (or
// alters decide() itself) slips through them.  This test replays a fixed
// request grid against the committed frames (decide_golden.hpp): every
// request must encode to the stored request bytes, and decide() plus the
// response encoder must reproduce the stored response bytes exactly.
//
// To regenerate after a deliberate change to the wire format or the
// decision model:
//
//   SSS_DECIDE_GOLDEN_OUT=$PWD/tests/data/decide_golden/frames.txt
//       ./build/tests/serve_decide_golden_test
//
// (one command line; the output path is written before the replay runs).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "decide_golden.hpp"
#include "serve/decide.hpp"
#include "serve/protocol.hpp"
#include "stats/rng.hpp"

namespace sss::serve {
namespace {

struct GridCase {
  std::string snapshot;
  DecideRequest request;
};

DecideRequest make_request(const std::string& facility, std::uint64_t size,
                           double utilization, std::uint32_t hops) {
  DecideRequest request;
  request.facility = facility;
  request.transfer_size_bytes = size;
  request.operating_utilization = utilization;
  request.path_hops = hops;
  return request;
}

// Every boundary of decide()'s validation and pricing, crossed with both
// profiles, then a seeded sample of ordinary requests.
std::vector<GridCase> grid() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::uint64_t max_size = kMaxTransferSizeBytes;
  std::vector<GridCase> cases;
  for (const char* facility : {"golden", "edge"}) {
    for (const std::uint64_t size : {std::uint64_t{0}, std::uint64_t{1}, max_size, max_size + 1}) {
      // 0 = calibrated point; 0.5 inside both profiles' measured range;
      // 0.05 below it; 1.5 above it; NaN is malformed.
      for (const double utilization : {0.0, 0.5, 0.05, 1.5, nan}) {
        for (const std::uint32_t hops : {0u, 1u, 2u, 4u, kMaxPathHops, kMaxPathHops + 1}) {
          cases.push_back({"profiles", make_request(facility, size, utilization, hops)});
        }
      }
    }
  }
  for (const double utilization : {-0.25, std::numeric_limits<double>::infinity()}) {
    cases.push_back({"profiles", make_request("golden", 0, utilization, 0)});
  }
  // Unknown facilities, including one of the longest name the wire allows.
  const std::string longest(kFacilityNameSize - 1, 'z');
  for (const std::string& facility : {std::string("nowhere"), longest}) {
    cases.push_back({"profiles", make_request(facility, 0, 0.0, 0)});
    cases.push_back({"profiles", make_request(facility, 1, 0.5, 4)});
  }
  for (const std::string& facility : {std::string("golden"), std::string("nowhere")}) {
    cases.push_back({"empty", make_request(facility, 0, 0.0, 0)});
    cases.push_back({"empty", make_request(facility, max_size + 1, nan, kMaxPathHops + 1)});
  }
  stats::Random rng(7);
  for (int i = 0; i < 48; ++i) {
    const char* facility = rng.chance(0.5) ? "golden" : "edge";
    const std::uint64_t size = rng.chance(0.2) ? 0 : 1 + rng.uniform_index(std::uint64_t{1} << 40);
    const double utilization = rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 1.2);
    const auto hops = static_cast<std::uint32_t>(rng.uniform_index(9));
    cases.push_back({"profiles", make_request(facility, size, utilization, hops)});
  }
  return cases;
}

std::string encode_request(const DecideRequest& request) {
  std::string frame;
  append_decide_request(frame, request);
  return frame;
}

std::string encode_response(const DecideResponse& response) {
  std::string frame;
  append_decide_response(frame, response);
  return frame;
}

const unsigned char* bytes_of(const std::string& s) {
  return reinterpret_cast<const unsigned char*>(s.data());
}

class DecideGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profiles_ = new ServiceSnapshot(golden::profiles_snapshot());
    empty_ = new ServiceSnapshot(golden::empty_snapshot());
    if (const char* out = std::getenv("SSS_DECIDE_GOLDEN_OUT")) write_golden(out);
    frames_ = new std::vector<golden::GoldenFrame>(golden::read_frames());
  }
  static void TearDownTestSuite() {
    delete profiles_;
    delete empty_;
    delete frames_;
  }

  static const ServiceSnapshot& snapshot_named(const std::string& name) {
    if (name == "profiles") return *profiles_;
    if (name != "empty") throw std::runtime_error("decide golden: unknown snapshot " + name);
    return *empty_;
  }

  static void write_golden(const std::string& path) {
    std::string text =
        "# decide golden: <snapshot> <request frame hex> <response frame hex>\n"
        "# Generated by tests/serve/decide_golden_test.cpp; see tests/serve/decide_golden.hpp.\n";
    for (const GridCase& c : grid()) {
      text += c.snapshot + " " + golden::to_hex(encode_request(c.request)) + " " +
              golden::to_hex(encode_response(decide(snapshot_named(c.snapshot), c.request))) +
              "\n";
    }
    trace::write_text_file_atomic(path, text);
  }

  static ServiceSnapshot* profiles_;
  static ServiceSnapshot* empty_;
  static std::vector<golden::GoldenFrame>* frames_;
};

ServiceSnapshot* DecideGolden::profiles_ = nullptr;
ServiceSnapshot* DecideGolden::empty_ = nullptr;
std::vector<golden::GoldenFrame>* DecideGolden::frames_ = nullptr;

TEST_F(DecideGolden, GridEncodesToTheCommittedRequests) {
  const std::vector<GridCase> cases = grid();
  ASSERT_EQ(frames_->size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ((*frames_)[i].snapshot, cases[i].snapshot) << "line " << i;
    EXPECT_EQ(golden::to_hex(encode_request(cases[i].request)),
              golden::to_hex((*frames_)[i].request))
        << "line " << i;
  }
}

TEST_F(DecideGolden, DecideAnswersMatchByteForByte) {
  for (std::size_t i = 0; i < frames_->size(); ++i) {
    const golden::GoldenFrame& frame = (*frames_)[i];
    ASSERT_EQ(frame.request.size(), kHeaderSize + kDecideRequestSize) << "line " << i;
    const auto request =
        decode_decide_request(bytes_of(frame.request) + kHeaderSize, kDecideRequestSize);
    ASSERT_TRUE(request.has_value()) << "line " << i;
    const DecideResponse response = decide(snapshot_named(frame.snapshot), *request);
    EXPECT_EQ(golden::to_hex(encode_response(response)), golden::to_hex(frame.response))
        << "line " << i;
  }
}

TEST_F(DecideGolden, StoredFramesReencodeByteForByte) {
  for (std::size_t i = 0; i < frames_->size(); ++i) {
    const golden::GoldenFrame& frame = (*frames_)[i];
    const MessageHeader request_header = decode_header(bytes_of(frame.request));
    EXPECT_EQ(request_header.type, static_cast<std::uint16_t>(MessageType::kDecideRequest));
    const auto request =
        decode_decide_request(bytes_of(frame.request) + kHeaderSize, kDecideRequestSize);
    ASSERT_TRUE(request.has_value()) << "line " << i;
    EXPECT_EQ(encode_request(*request), frame.request) << "line " << i;

    ASSERT_EQ(frame.response.size(), kHeaderSize + kDecideResponseSize) << "line " << i;
    const MessageHeader response_header = decode_header(bytes_of(frame.response));
    EXPECT_EQ(response_header.type, static_cast<std::uint16_t>(MessageType::kDecideResponse));
    EXPECT_EQ(response_header.payload_length, kDecideResponseSize);
    const auto response =
        decode_decide_response(bytes_of(frame.response) + kHeaderSize, kDecideResponseSize);
    ASSERT_TRUE(response.has_value()) << "line " << i;
    EXPECT_EQ(encode_response(*response), frame.response) << "line " << i;
  }
}

// A truncated or mis-generated golden would pin less than it claims: every
// status decide() can answer and both reachable decisions must appear, as
// must a clamped utilization.
TEST_F(DecideGolden, GridCoversEveryOutcome) {
  std::set<std::uint32_t> statuses;
  std::set<WireDecision> decisions;
  bool clamped = false;
  for (const golden::GoldenFrame& frame : *frames_) {
    const auto response =
        decode_decide_response(bytes_of(frame.response) + kHeaderSize, kDecideResponseSize);
    ASSERT_TRUE(response.has_value());
    statuses.insert(response->status);
    if (response->status == 0) decisions.insert(response->decision);
    clamped = clamped || (response->flags & kFlagUtilizationClamped) != 0;
  }
  EXPECT_EQ(statuses, (std::set<std::uint32_t>{
                          0, static_cast<std::uint32_t>(ErrorCode::kMalformedRequest),
                          static_cast<std::uint32_t>(ErrorCode::kUnknownFacility),
                          static_cast<std::uint32_t>(ErrorCode::kEmptySnapshot)}));
  EXPECT_EQ(decisions, (std::set<WireDecision>{WireDecision::kLocal, WireDecision::kStream}));
  EXPECT_TRUE(clamped);
}

}  // namespace
}  // namespace sss::serve
