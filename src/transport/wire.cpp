#include "transport/wire.hpp"

#include <algorithm>

#include "support/common.hpp"

namespace alge::transport {

namespace {

constexpr std::uint64_t kReserveWordsCap = std::uint64_t{1} << 20;

}  // namespace

void ChunkedTransport::deliver(int dst, int tag, sim::ConstPayload data,
                               double clock_after_send, double msg_count,
                               const sim::FaultDecision& fd) {
  ALGE_CHECK(!fd.any(),
             "fault injection reached a real transport (rank %d -> %d); "
             "real backends must be configured fault-free",
             rank_, dst);
  ALGE_CHECK(!data.is_ghost(),
             "ghost payload reached a real transport (rank %d -> %d)",
             rank_, dst);
  ALGE_REQUIRE(msg_count >= 1.0 && msg_count <= 0x7fffffff,
               "message of %zu words splits into %.0f chunks at this "
               "msg cap — beyond what a real transport will move",
               data.size(), msg_count);
  const auto chunk_count = static_cast<std::uint32_t>(msg_count);
  const std::uint64_t msg_words = data.size();
  const double* words = msg_words > 0 ? data.span().data() : nullptr;

  WireChunkHeader h;
  h.src = rank_;
  h.tag = tag;
  h.chunk_count = chunk_count;
  h.msg_words = msg_words;
  h.arrival = clock_after_send;
  h.msg_count = msg_count;

  std::uint64_t off = 0;
  for (std::uint32_t i = 0; i < chunk_count; ++i) {
    h.chunk_index = i;
    h.chunk_words = chunk_words_at(msg_words, chunk_count, i);
    frame_buf_.assign(reinterpret_cast<const char*>(&h), sizeof(h));
    frame_buf_.append(reinterpret_cast<const char*>(words + off),
                      static_cast<std::size_t>(h.chunk_words) *
                          sizeof(double));
    send_frame(dst, frame_buf_.data(), frame_buf_.size());
    off += h.chunk_words;
    stats_.msgs_sent += 1.0;
    stats_.words_sent += static_cast<double>(h.chunk_words);
  }
}

StashedMessage ChunkedTransport::read_message(int src, int* tag_out) {
  WireChunkHeader h;
  std::vector<double> payload;
  StashedMessage msg;
  std::uint32_t expect_count = 0;
  for (std::uint32_t i = 0;; ++i) {
    recv_frame(src, &h, &payload);
    if (h.magic != kWireMagic || h.src != src || h.chunk_index != i ||
        h.chunk_count == 0 ||
        h.chunk_words != chunk_words_at(h.msg_words, h.chunk_count, i) ||
        (i > 0 && h.chunk_count != expect_count)) {
      throw TransportError(strfmt(
          "rank %d: malformed frame from rank %d (magic %08x src %d chunk "
          "%u/%u, %llu of %llu words)",
          rank_, src, h.magic, h.src, h.chunk_index, h.chunk_count,
          static_cast<unsigned long long>(h.chunk_words),
          static_cast<unsigned long long>(h.msg_words)));
    }
    stats_.msgs_recv += 1.0;
    stats_.words_recv += static_cast<double>(h.chunk_words);
    if (i == 0) {
      expect_count = h.chunk_count;
      *tag_out = h.tag;
      msg.arrival = h.arrival;
      msg.msg_count = h.msg_count;
      msg.words.clear();
      // msg_words is the peer's claim, checked only against chunk_count:
      // trust it for at most kReserveWordsCap up front (a forged header
      // would otherwise allocate terabytes); longer messages grow as their
      // chunks arrive.
      msg.words.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(h.msg_words, kReserveWordsCap)));
    } else if (h.tag != *tag_out) {
      throw TransportError(strfmt(
          "rank %d: chunk %u from rank %d switched tag %d -> %d mid-message",
          rank_, h.chunk_index, src, *tag_out, h.tag));
    }
    msg.words.insert(msg.words.end(), payload.begin(), payload.end());
    if (i + 1 == expect_count) break;
  }
  return msg;
}

RecvMeta ChunkedTransport::receive(int src, int tag, sim::Payload out) {
  ALGE_CHECK(!out.is_ghost(),
             "ghost payload reached a real transport (rank %d <- %d)",
             rank_, src);
  StashedMessage msg;
  auto stashed = stash_.find({src, tag});
  if (stashed != stash_.end() && !stashed->second.empty()) {
    msg = std::move(stashed->second.front());
    stashed->second.pop_front();
  } else {
    for (;;) {
      int got_tag = 0;
      StashedMessage m = read_message(src, &got_tag);
      if (got_tag == tag) {
        msg = std::move(m);
        break;
      }
      stash_[{src, got_tag}].push_back(std::move(m));
    }
  }
  if (msg.words.size() != out.size()) {
    throw sim::SimError(strfmt(
        "rank %d recv from %d tag %d: expected %zu words, message has "
        "%zu",
        rank_, src, tag, out.size(), msg.words.size()));
  }
  std::memcpy(out.span().data(), msg.words.data(),
              msg.words.size() * sizeof(double));
  return {msg.arrival, msg.msg_count};
}

}  // namespace alge::transport
