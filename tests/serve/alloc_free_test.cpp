// alloc_free_test.cpp — the per-request serve path performs ZERO heap
// allocations: decoding a DecideRequest into a reused request object,
// decide(), and encoding the DecideResponse into a reserved buffer.  This
// is the worker's loop body in DecideServer::process_frames.
//
// The counting hooks override the global operator new/delete for this test
// binary only (each tests/**/*.cpp is its own executable).  The requests
// are the committed decide golden grid (decide_golden.hpp), which crosses
// every validation boundary and error status; one warm pass lets the
// reused request's facility string reach the longest name's size.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "decide_golden.hpp"
#include "serve/decide.hpp"
#include "serve/protocol.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace sss::serve {
namespace {

TEST(ServeAllocFree, DecodeDecideEncodeIsHeapAllocationFree) {
  const ServiceSnapshot profiles = golden::profiles_snapshot();
  const ServiceSnapshot empty = golden::empty_snapshot();
  const std::vector<golden::GoldenFrame> frames = golden::read_frames();
  ASSERT_FALSE(frames.empty());
  std::string expected;
  for (const golden::GoldenFrame& frame : frames) expected += frame.response;

  DecideRequest request;
  std::string out;
  out.reserve(expected.size());
  auto serve_grid = [&] {
    out.clear();
    for (const golden::GoldenFrame& frame : frames) {
      const auto* payload = reinterpret_cast<const unsigned char*>(frame.request.data());
      if (!decode_decide_request(payload + kHeaderSize, kDecideRequestSize, request)) return;
      append_decide_response(
          out, decide(frame.snapshot == "empty" ? empty : profiles, request));
    }
  };

  serve_grid();  // warm: the reused request grows to the longest name once
  ASSERT_EQ(out, expected);

  g_allocations.store(0);
  g_counting.store(true);
  serve_grid();
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "decode/decide/encode touched the heap on the per-request path";
  EXPECT_EQ(out, expected);
}

}  // namespace
}  // namespace sss::serve
