// Inputs of the serving workloads, all derived from the workload seed: the
// set corpus, the read stream, the commuting write generator, and the
// offline oracle that answers reads from a BatmapStore.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "batmap/intersect.hpp"
#include "mining/datagen.hpp"
#include "service/query_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace batmap = repro::batmap;

struct CorpusSpec {
  std::uint32_t sets = 512;
  std::uint64_t universe = 60000;
  double mean_size = 1200;
  double size_spread = 8;       ///< max/min of the log-uniform set sizes
  double zipf = 1.1;            ///< query-id skew
  // Shares of the read mix, in multiples of 10 permille (the mix is exact
  // per block of 100 requests).
  std::uint32_t topk_permille = 20;
  std::uint32_t kway_permille = 60;   ///< K and R, half each
  std::uint32_t support_permille = 250;
};

/// Sorted, duplicate-free element lists, one per set.
struct Corpus {
  std::uint64_t universe = 0;
  std::vector<std::vector<std::uint64_t>> sets;
  std::uint64_t elements() const;
};

Corpus make_corpus(const CorpusSpec& spec, std::uint64_t seed);

/// The offline store of a corpus (batmap_cli defaults: default hash seed
/// and cuckoo options).
batmap::BatmapStore build_store(const Corpus& c);

/// A read query: the protocol line and the engine query it stands for.
struct ReadQuery {
  char kind = 'I';
  repro::service::Query q;
  std::string line;
};

/// `n` reads in the I/S/T/K/R mix of `spec`.
std::vector<ReadQuery> make_read_stream(const CorpusSpec& spec,
                                        std::uint64_t seed, std::size_t n);

/// Expected reply lines, computed from the offline BatmapStore: I, S and T
/// through the store's exact and raw counts, K and R by sorted-list
/// intersection. Memoized per query line.
class Oracle {
 public:
  explicit Oracle(const batmap::BatmapStore& store) : store_(store) {}
  const std::string& expected(const ReadQuery& r);

 private:
  const batmap::BatmapStore& store_;
  std::unordered_map<std::string, std::string> memo_;
  /// Per probe set: every other id by (count desc, id asc).
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint64_t, std::uint32_t>>>
      ranking_;
};

/// Commuting writes. Connection c only writes sets with id % conns == c, so
/// each set's writes arrive in generation order (one connection serves its
/// requests in order), and writes on different connections touch disjoint
/// sets. Adds always insert absent elements and deletes remove present
/// ones, so every write's recorded count is exactly its element count. Set
/// sizes random-walk around their base size. Each connection's state is
/// touched only by that connection's thread.
class WriteModel {
 public:
  WriteModel(const Corpus& base, std::uint32_t conns, std::uint64_t seed,
             double zipf_theta);
  /// Appends "A <set> <e>..." or "D <set> <e>..." to `out` and fills `q`;
  /// returns the element count.
  std::uint8_t next(std::uint32_t conn, std::string& out,
                    repro::service::Query& q);
  /// True when request `g` of the mixed stream is a write.
  bool is_write(std::uint64_t g) const;
  Corpus current() const;

 private:
  std::uint64_t universe_;
  std::uint32_t conns_;
  std::uint64_t seed_;
  std::uint32_t write_permille_ = 200;
  repro::mining::ZipfSampler zipf_;
  std::vector<std::vector<std::uint64_t>> bits_;  ///< membership per set
  std::vector<std::uint64_t> size_, base_size_;
  std::vector<repro::Xoshiro256> rng_;            ///< per connection
};

}  // namespace perfbench
