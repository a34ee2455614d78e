#ifndef UNILOG_BENCH_LZ_CORPUS_H_
#define UNILOG_BENCH_LZ_CORPUS_H_

// Seeded inputs for the Lz codec, shared by the golden and property tests
// and by bench_sequence_compression:
//
//   GoldenCorpus()  a fixed mix of input shapes whose compressed bytes are
//                   pinned by kGoldenDigest (the chain search) and
//                   kFastGoldenDigest (the single-probe parse);
//   FramedHour()    one simulated hour of serialized client events, framed
//                   the way the log mover frames a warehouse part.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/compress.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "dataflow/plan_fingerprint.h"
#include "events/client_event.h"
#include "scribe/message.h"
#include "workload/generator.h"

namespace unilog::lz_corpus {

/// FNV-1a digest (CorpusDigest) of the compressed GoldenCorpus(), recorded
/// from the byte-at-a-time compressor that tests/lz_reference.h freezes.
/// Any change to any compressed byte changes it.
inline constexpr uint64_t kGoldenDigest = 0xa2a8db670a153d08ull;

/// CorpusDigest of GoldenCorpus() under Lz::FastCompressor, the
/// aggregators' staging parse, recorded from lz_reference::FastCompress.
inline constexpr uint64_t kFastGoldenDigest = 0xb1d62e135ac9268dull;

/// `n` bytes drawn uniformly from the first `alphabet` byte values.
inline std::string RandomBytes(Rng& rng, size_t n, uint64_t alphabet = 256) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng.Uniform(alphabet)));
  }
  return s;
}

/// Event-like text: hierarchical event names, user ids and timestamps,
/// varint-framed, so matches have the lengths and distances of log data.
inline std::string EventText(Rng& rng, size_t records) {
  static const char* const kNames[] = {
      "web:home:mentions:stream:avatar:profile_click",
      "web:home:home:stream:tweet:impression",
      "iphone:home:home:stream:tweet:favorite",
      "android:profile:tweets:stream:tweet:retweet",
      "web:search:results:stream:user:follow",
      "web:signup:form:step:button:click"};
  std::string body;
  for (size_t r = 0; r < records; ++r) {
    std::string rec = kNames[rng.Uniform(6)];
    rec += "|uid=" + std::to_string(1000000 + rng.Uniform(5000));
    rec += "|ts=" + std::to_string(1345507200000 + rng.Uniform(3600000));
    rec += "|ip=10." + std::to_string(rng.Uniform(256)) + "." +
           std::to_string(rng.Uniform(256)) + ".1";
    scribe::AppendFramed(&body, rec);
  }
  return body;
}

/// The golden corpus: every shape the compressor's search treats
/// specially, about 1.4 MB in all.
inline std::vector<std::string> GoldenCorpus() {
  Rng rng(20120821);
  std::vector<std::string> corpus;
  // 0-16 bytes: every length of the word loop's byte-wise tail.
  for (size_t n = 0; n <= 16; ++n) {
    corpus.push_back(RandomBytes(rng, n, 1 + n % 3));
  }
  // Runs of one byte: saturated chains and matches ending at the input end.
  for (size_t n : {4, 5, 8, 9, 63, 64, 65, 4096, 70000}) {
    corpus.emplace_back(n, static_cast<char>('a' + n % 26));
  }
  // A run between literals, so its matches end before the input does.
  corpus.push_back("head" + std::string(5000, '\0') + "tail");
  // Alphabets of 1 to 256 symbols.
  for (uint64_t alphabet : {1, 2, 3, 4, 7, 16, 64, 255, 256}) {
    corpus.push_back(RandomBytes(rng, 20000, alphabet));
  }
  // A phrase repeated at distances of kWindow - 1, kWindow and kWindow + 1.
  for (size_t gap : {Lz::kWindow - 1, Lz::kWindow, Lz::kWindow + 1}) {
    const std::string phrase = "golden-window-phrase-" + std::to_string(gap);
    std::string data = phrase;
    data += RandomBytes(rng, gap - phrase.size(), 4);
    data += phrase;
    corpus.push_back(std::move(data));
  }
  // Log-like text, one short and one longer than the window.
  corpus.push_back(EventText(rng, 200));
  corpus.push_back(EventText(rng, 8000));
  // Mixed segments: noise, runs, phrases and copies of earlier bytes.
  for (int b = 0; b < 8; ++b) {
    std::string data;
    for (int s = 0; s < 40; ++s) {
      switch (rng.Uniform(4)) {
        case 0:
          data += RandomBytes(rng, rng.Uniform(400));
          break;
        case 1:
          data.append(rng.Uniform(300), static_cast<char>(rng.Uniform(256)));
          break;
        case 2:
          for (uint64_t k = rng.Uniform(60); k > 0; --k) {
            data += "event" + std::to_string(rng.Uniform(10)) + ":";
          }
          break;
        default:
          if (!data.empty()) {
            size_t start = rng.Uniform(data.size());
            data += data.substr(start, rng.Uniform(500));
          }
      }
    }
    corpus.push_back(std::move(data));
  }
  return corpus;
}

/// FNV-1a over each compressed block's length and bytes, in corpus order.
template <typename CompressFn>
uint64_t CorpusDigest(const std::vector<std::string>& corpus,
                      CompressFn compress) {
  dataflow::Fingerprint fp;
  for (const std::string& input : corpus) {
    const std::string block = compress(input);
    fp.MixU64(block.size());
    fp.Mix(block);
  }
  return fp.value();
}

/// One simulated hour of client events from `users` users, each event
/// serialized and framed the way the log mover frames a warehouse part.
inline std::string FramedHour(uint64_t seed, int users) {
  workload::WorkloadOptions options;
  options.seed = seed;
  options.num_users = users;
  options.start = MakeDate(2012, 8, 21);
  options.duration = kMillisPerHour;
  workload::WorkloadGenerator generator(options);
  std::string body;
  Status st = generator.Generate([&](const events::ClientEvent& ev) {
    scribe::AppendFramed(&body, ev.Serialize());
  });
  if (!st.ok()) body.clear();
  return body;
}

}  // namespace unilog::lz_corpus

#endif  // UNILOG_BENCH_LZ_CORPUS_H_
