// Deterministic mutation fuzzing of the parsers that read untrusted bytes:
// serve frames (FrameReader over a socketpair), JSON (json::parse),
// experiment specs (serve::spec_from_request, parse only — never executed)
// and the real transports' wire chunk headers (TcpTransport::receive over a
// socketpair peer).
//
// Each target first runs every committed seed in tests/fuzz_corpus/<target>/
// unmutated, then a fixed number of mutants drawn by a splitmix64 stream
// from a fixed seed: bit flips, byte inserts and deletes, truncation,
// splices of two seeds, and length-field overwrites with boundary values.
// The contract is the same for every target: it returns or throws its
// documented error type — nothing else escapes, nothing crashes, nothing
// hangs. Fixed seeds and iteration counts make a failure reproducible; a
// failing input is written to fuzz_failure_<target>.bin in the working
// directory so it can join the corpus once the program is fixed.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "engine/job.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "transport/tcp.hpp"

namespace alge {
namespace {

/// Mutants never grow past this (or past their seed, if that is larger),
/// so a whole input always fits a socketpair's buffer in one write.
constexpr std::size_t kMaxInputBytes = 16 * 1024;

struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }
};

struct Seed {
  std::string name;
  std::string bytes;
};

std::vector<Seed> load_corpus(const std::string& target) {
  const std::filesystem::path dir =
      std::filesystem::path(ALGE_FUZZ_CORPUS_DIR) / target;
  std::vector<Seed> seeds;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    seeds.push_back({entry.path().filename().string(),
                     std::string(std::istreambuf_iterator<char>(in), {})});
  }
  std::sort(seeds.begin(), seeds.end(),
            [](const Seed& a, const Seed& b) { return a.name < b.name; });
  return seeds;
}

/// Write `v` as 4 bytes at `pos`, big-endian (serve frame lengths) or
/// little-endian (wire header fields on this host).
void put32(std::string& s, std::size_t pos, std::uint32_t v, bool big) {
  for (int i = 0; i < 4; ++i) {
    const int shift = big ? 24 - 8 * i : 8 * i;
    s[pos + static_cast<std::size_t>(i)] = static_cast<char>(v >> shift);
  }
}

std::string mutate(const std::string& seed, const std::vector<Seed>& corpus,
                   SplitMix64& rng) {
  static constexpr std::uint32_t kBoundary[] = {
      0,    1,    4,    7,    8,    55,         56,         57,
      64,   65,   255,  256,  4095, 4096,       4097,       65536,
      1u << 20, (1u << 20) + 1, 0x7fffffffu, 0x80000000u, 0xffffffffu};
  static constexpr char kBytes[] = {'\0', '"', '\\', '{', '}', '[', ']',
                                    ':',  ',', '-',  'e', '0', '9', '.',
                                    'u',  ' ', '\x7f', '\xff'};
  std::string s = seed;
  const std::size_t ops = 1 + rng.below(4);
  for (std::size_t op = 0; op < ops; ++op) {
    switch (rng.below(6)) {
      case 0:  // bit flip
        if (!s.empty()) {
          s[rng.below(s.size())] ^= static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1: {  // byte insert: a structural byte or a random one
        const char c = rng.below(2) == 0
                           ? kBytes[rng.below(std::size(kBytes))]
                           : static_cast<char>(rng.next());
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 rng.below(s.size() + 1)),
                 c);
        break;
      }
      case 2:  // byte delete
        if (!s.empty()) s.erase(rng.below(s.size()), 1);
        break;
      case 3:  // truncate
        s.resize(rng.below(s.size() + 1));
        break;
      case 4: {  // splice: our prefix + another seed's suffix
        const std::string& other = corpus[rng.below(corpus.size())].bytes;
        s = s.substr(0, rng.below(s.size() + 1)) +
            other.substr(rng.below(other.size() + 1));
        break;
      }
      default:  // length-field overwrite with a boundary value
        if (s.size() >= 4) {
          const std::uint32_t v =
              rng.below(4) == 0 ? static_cast<std::uint32_t>(s.size())
                                : kBoundary[rng.below(std::size(kBoundary))];
          put32(s, rng.below(s.size() - 3), v, rng.below(2) == 0);
        }
        break;
    }
  }
  s.resize(std::min(s.size(), std::max(seed.size(), kMaxInputBytes)));
  return s;
}

/// Run every seed, then `iterations` mutants, through `run`. Any exception
/// that escapes `run` breaks the contract (each target catches only its
/// documented error types).
template <class Run>
void fuzz(const std::string& target, std::uint64_t seed, int iterations,
          Run run) {
  const std::vector<Seed> corpus = load_corpus(target);
  ASSERT_FALSE(corpus.empty()) << "no seeds for " << target;
  auto one = [&](const std::string& input, const std::string& label) {
    try {
      run(input);
    } catch (const std::exception& e) {
      ADD_FAILURE() << target << " " << label << ": undocumented "
                    << "exception: " << e.what();
    }
    if (!::testing::Test::HasFailure()) return true;
    std::ofstream("fuzz_failure_" + target + ".bin", std::ios::binary)
        << input;
    ADD_FAILURE() << target << " " << label
                  << " broke the contract; input saved to fuzz_failure_"
                  << target << ".bin";
    return false;
  };
  for (const Seed& s : corpus) {
    if (!one(s.bytes, "seed " + s.name)) return;
  }
  SplitMix64 rng{seed};
  for (int i = 0; i < iterations; ++i) {
    const Seed& base = corpus[rng.below(corpus.size())];
    if (!one(mutate(base.bytes, corpus, rng),
             "mutant " + std::to_string(i) + " of " + base.name)) {
      return;
    }
  }
}

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  /// Send `bytes` from the peer end and close it, so the reader sees them
  /// followed by end of stream.
  void send_and_close(const std::string& bytes) {
    EXPECT_TRUE(serve::write_all(fds[1], bytes));
    ::close(fds[1]);
    fds[1] = -1;
  }
};

using Status = serve::FrameReader::Status;

TEST(Fuzz, FrameReader) {
  constexpr std::size_t kMaxFrame = 64;
  std::set<Status> reached;
  auto run = [&](const std::string& bytes) {
    SocketPair sp;
    sp.send_and_close(bytes);
    serve::FrameReader reader(sp.fds[0], kMaxFrame);
    // Every frame or empty frame consumes at least its 4-byte header, so
    // the stream must end within this many calls.
    for (std::size_t calls = 0; calls <= bytes.size() / 4 + 1; ++calls) {
      std::string_view payload;
      const Status st = reader.next(&payload);
      reached.insert(st);
      if (st == Status::kFrame) {
        ASSERT_FALSE(payload.empty());
        ASSERT_LE(payload.size(), kMaxFrame);
        continue;
      }
      if (st == Status::kEmpty) continue;
      ASSERT_NE(st, Status::kError) << "read() failed on a socketpair";
      return;  // kTooLarge, kClosed, kTruncated end the stream
    }
    FAIL() << "FrameReader kept returning frames past the end of its input";
  };
  fuzz("frame", 0x5eed0001, 3000, run);
  for (const Status st : {Status::kFrame, Status::kEmpty, Status::kTooLarge,
                          Status::kClosed, Status::kTruncated}) {
    EXPECT_EQ(reached.count(st), 1u)
        << "corpus never reached status " << static_cast<int>(st);
  }
}

TEST(Fuzz, JsonParse) {
  int accepted = 0;
  auto run = [&](const std::string& text) {
    json::Value v;
    try {
      v = json::parse(text);
    } catch (const json::json_error&) {
      return;
    }
    ++accepted;
    // Whatever parses serializes, and re-parses to the same document.
    const std::string once = v.dump();
    EXPECT_EQ(json::parse(once).dump(), once) << text;
  };
  fuzz("json", 0x5eed0002, 5000, run);
  EXPECT_GT(accepted, 0);
}

TEST(Fuzz, ExperimentSpec) {
  int accepted = 0;
  auto run = [&](const std::string& text) {
    engine::ExperimentSpec spec;
    try {
      spec = serve::spec_from_request(json::parse(text));
    } catch (const json::json_error&) {
      return;
    } catch (const invalid_argument_error&) {
      return;
    }
    ++accepted;
    // An accepted spec round-trips through its canonical encoding (the
    // key of the result cache and of serve's in-flight table).
    const std::string canon = spec.canonical_json();
    EXPECT_EQ(engine::ExperimentSpec::from_json(json::parse(canon))
                  .canonical_json(),
              canon)
        << text;
  };
  fuzz("spec", 0x5eed0003, 5000, run);
  EXPECT_GT(accepted, 0);
}

TEST(Fuzz, WireChunkHeader) {
  int received = 0;
  auto run = [&](const std::string& bytes) {
    // Rank 0 of a 2-rank TcpTransport whose link to rank 1 is a socketpair;
    // the scripted rank 1 sends `bytes` and hangs up.
    SocketPair sp;
    transport::TcpTransport t(0, 2, {-1, sp.fds[0]},
                              /*max_frame_bytes=*/4096, /*timeout_s=*/2.0);
    sp.fds[0] = -1;  // the transport owns it now
    sp.send_and_close(bytes);
    std::vector<double> out(4);
    try {
      // Valid 4-word tag-0 messages are received until the stream ends;
      // each consumes at least one header-sized frame.
      for (std::size_t i = 0; i <= bytes.size() / 56 + 1; ++i) {
        t.receive(1, 0, sim::Payload(out));
        ++received;
      }
      FAIL() << "receive kept returning messages past the end of its input";
    } catch (const sim::SimError&) {
      // TransportError (malformed or lost stream) or a size mismatch.
    }
  };
  fuzz("wire", 0x5eed0004, 3000, run);
  EXPECT_GT(received, 0);
}

}  // namespace
}  // namespace alge
