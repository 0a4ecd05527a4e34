#include "serve/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sss::serve {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "ok";
    case ErrorCode::kBadMagic:
      return "bad magic";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported protocol version";
    case ErrorCode::kBadType:
      return "unknown message type";
    case ErrorCode::kBadLength:
      return "bad payload length";
    case ErrorCode::kMalformedRequest:
      return "malformed request";
    case ErrorCode::kUnknownFacility:
      return "unknown facility";
    case ErrorCode::kEmptySnapshot:
      return "no profiles loaded";
    case ErrorCode::kInternal:
      return "internal error";
  }
  return "unknown error";
}

bool is_fatal(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic:
    case ErrorCode::kUnsupportedVersion:
    case ErrorCode::kBadType:
    case ErrorCode::kBadLength:
      return true;
    default:
      return false;
  }
}

const char* to_string(WireDecision decision) {
  switch (decision) {
    case WireDecision::kLocal:
      return "local";
    case WireDecision::kStream:
      return "stream";
    case WireDecision::kStage:
      return "stage";
  }
  return "unknown";
}

// --- little-endian primitives ----------------------------------------------

namespace {

// Explicit little-endian stores into a caller's buffer.  The compiler merges
// each into one native store on a little-endian host; the byte order on the
// wire stays fixed on any host.
void store_u16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}

void store_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void store_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void store_f64(unsigned char* p, double v) { store_u64(p, std::bit_cast<std::uint64_t>(v)); }

template <std::size_t N>
void append_bytes(std::string& out, const unsigned char (&bytes)[N]) {
  out.append(reinterpret_cast<const char*>(bytes), N);
}

}  // namespace

void put_u16(std::string& out, std::uint16_t v) {
  unsigned char bytes[2];
  store_u16(bytes, v);
  append_bytes(out, bytes);
}

void put_u32(std::string& out, std::uint32_t v) {
  unsigned char bytes[4];
  store_u32(bytes, v);
  append_bytes(out, bytes);
}

void put_u64(std::string& out, std::uint64_t v) {
  unsigned char bytes[8];
  store_u64(bytes, v);
  append_bytes(out, bytes);
}

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

double get_f64(const unsigned char* p) { return std::bit_cast<double>(get_u64(p)); }

// --- encoding --------------------------------------------------------------

// Every frame is built in a stack buffer of its exact size (the header plus
// any fixed-size payload) and appended to `out` in one call.

namespace {

void store_header(unsigned char* p, MessageType type, std::uint32_t payload_length) {
  store_u32(p, kMagic);
  store_u16(p + 4, kProtocolVersion);
  store_u16(p + 6, static_cast<std::uint16_t>(type));
  store_u32(p + 8, payload_length);
}

}  // namespace

void append_decide_request(std::string& out, const DecideRequest& request) {
  unsigned char frame[kHeaderSize + kDecideRequestSize] = {};  // NUL name padding, reserved 0
  store_header(frame, MessageType::kDecideRequest, kDecideRequestSize);
  unsigned char* p = frame + kHeaderSize;
  std::memcpy(p, request.facility.data(),
              std::min(request.facility.size(), kFacilityNameSize - 1));
  store_u64(p + kFacilityNameSize, request.transfer_size_bytes);
  store_f64(p + kFacilityNameSize + 8, request.operating_utilization);
  store_u32(p + kFacilityNameSize + 16, request.path_hops);
  append_bytes(out, frame);
}

void append_decide_response(std::string& out, const DecideResponse& response) {
  unsigned char frame[kHeaderSize + kDecideResponseSize];
  store_header(frame, MessageType::kDecideResponse, kDecideResponseSize);
  unsigned char* p = frame + kHeaderSize;
  store_u32(p, response.status);
  store_u32(p + 4, static_cast<std::uint32_t>(response.decision));
  store_f64(p + 8, response.t_stream_s);
  store_f64(p + 16, response.t_stage_s);
  store_f64(p + 24, response.t_local_s);
  store_f64(p + 32, response.t_worst_transfer_s);
  store_f64(p + 40, response.sss);
  store_u64(p + 48, response.profile_generation);
  store_f64(p + 56, response.operating_utilization);
  store_u32(p + 64, response.path_hops);
  store_u32(p + 68, response.flags);
  append_bytes(out, frame);
}

void append_stats_request(std::string& out) {
  unsigned char frame[kHeaderSize];
  store_header(frame, MessageType::kStatsRequest, 0);
  append_bytes(out, frame);
}

void append_stats_response(std::string& out, std::string_view json) {
  unsigned char header[kHeaderSize];
  store_header(header, MessageType::kStatsResponse, static_cast<std::uint32_t>(json.size()));
  append_bytes(out, header);
  out.append(json);
}

void append_error_response(std::string& out, ErrorCode code, std::string_view message) {
  unsigned char head[kHeaderSize + 4];
  store_header(head, MessageType::kErrorResponse,
               static_cast<std::uint32_t>(4 + message.size()));
  store_u32(head + kHeaderSize, static_cast<std::uint32_t>(code));
  append_bytes(out, head);
  out.append(message);
}

// --- decoding --------------------------------------------------------------

MessageHeader decode_header(const unsigned char* bytes) {
  MessageHeader header;
  header.magic = get_u32(bytes);
  header.version = get_u16(bytes + 4);
  header.type = get_u16(bytes + 6);
  header.payload_length = get_u32(bytes + 8);
  return header;
}

bool decode_decide_request(const unsigned char* payload, std::size_t size,
                           DecideRequest& request) {
  if (size != kDecideRequestSize) return false;
  // Facility: NUL-padded; the name is the bytes before the first NUL, and
  // every byte after it must also be NUL (rejects garbage in the padding).
  std::size_t name_end = 0;
  while (name_end < kFacilityNameSize && payload[name_end] != 0) ++name_end;
  if (name_end == kFacilityNameSize) return false;  // missing terminator
  for (std::size_t i = name_end; i < kFacilityNameSize; ++i) {
    if (payload[i] != 0) return false;
  }
  if (get_u32(payload + kFacilityNameSize + 20) != 0) return false;  // reserved
  request.facility.assign(reinterpret_cast<const char*>(payload), name_end);
  request.transfer_size_bytes = get_u64(payload + kFacilityNameSize);
  request.operating_utilization = get_f64(payload + kFacilityNameSize + 8);
  request.path_hops = get_u32(payload + kFacilityNameSize + 16);
  return true;
}

std::optional<DecideRequest> decode_decide_request(const unsigned char* payload,
                                                   std::size_t size) {
  DecideRequest request;
  if (!decode_decide_request(payload, size, request)) return std::nullopt;
  return request;
}

std::optional<DecideResponse> decode_decide_response(const unsigned char* payload,
                                                     std::size_t size) {
  if (size != kDecideResponseSize) return std::nullopt;
  DecideResponse response;
  response.status = get_u32(payload);
  const std::uint32_t decision = get_u32(payload + 4);
  if (decision > static_cast<std::uint32_t>(WireDecision::kStage)) return std::nullopt;
  response.decision = static_cast<WireDecision>(decision);
  response.t_stream_s = get_f64(payload + 8);
  response.t_stage_s = get_f64(payload + 16);
  response.t_local_s = get_f64(payload + 24);
  response.t_worst_transfer_s = get_f64(payload + 32);
  response.sss = get_f64(payload + 40);
  response.profile_generation = get_u64(payload + 48);
  response.operating_utilization = get_f64(payload + 56);
  response.path_hops = get_u32(payload + 64);
  response.flags = get_u32(payload + 68);
  return response;
}

std::optional<ErrorResponse> decode_error_response(const unsigned char* payload,
                                                   std::size_t size) {
  if (size < 4) return std::nullopt;
  ErrorResponse error;
  error.code = static_cast<ErrorCode>(get_u32(payload));
  error.message.assign(reinterpret_cast<const char*>(payload) + 4, size - 4);
  return error;
}

// --- incremental framing ---------------------------------------------------

void FrameReader::feed(const void* bytes, std::size_t size) {
  if (error_ != ErrorCode::kNone) return;  // stream already condemned
  const auto* p = static_cast<const unsigned char*>(bytes);
  buffer_.insert(buffer_.end(), p, p + size);
}

void FrameReader::compact() {
  // Reclaim consumed bytes once they dominate the buffer; amortized O(1).
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

std::optional<Frame> FrameReader::next() {
  if (error_ != ErrorCode::kNone) return std::nullopt;
  compact();
  if (buffer_.size() - consumed_ < kHeaderSize) return std::nullopt;
  const unsigned char* head = buffer_.data() + consumed_;
  const MessageHeader header = decode_header(head);
  if (header.magic != kMagic) {
    error_ = ErrorCode::kBadMagic;
    return std::nullopt;
  }
  if (header.payload_length > kMaxPayloadLength) {
    error_ = ErrorCode::kBadLength;
    return std::nullopt;
  }
  if (buffer_.size() - consumed_ < kHeaderSize + header.payload_length) {
    return std::nullopt;  // incomplete frame; wait for more bytes
  }
  Frame frame;
  frame.header = header;
  frame.payload = head + kHeaderSize;
  frame.payload_size = header.payload_length;
  consumed_ += kHeaderSize + header.payload_length;
  return frame;
}

}  // namespace sss::serve
