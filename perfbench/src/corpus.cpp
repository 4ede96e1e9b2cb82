#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace perfbench {

using repro::Xoshiro256;
namespace svc = repro::service;

std::uint64_t Corpus::elements() const {
  std::uint64_t n = 0;
  for (const auto& s : sets) n += s.size();
  return n;
}

Corpus make_corpus(const CorpusSpec& spec, std::uint64_t seed) {
  Corpus c;
  c.universe = spec.universe;
  Xoshiro256 rng(seed ^ 0xc0de5e7ull);
  // Log-uniform sizes over [lo, lo * spread] with mean `mean_size`. Set i
  // takes the size quantile frac(0.5 + i * golden ratio): the sizes of the
  // most popular (lowest) ids spread evenly over the range and do not
  // depend on the seed, so one seed's hot sets are not all large or all
  // small. The seed draws the elements and the query stream.
  const double lo = spec.mean_size * std::log(spec.size_spread) /
                    (spec.size_spread - 1.0);
  std::vector<std::uint8_t> seen(spec.universe);
  for (std::uint32_t i = 0; i < spec.sets; ++i) {
    const double u = std::fmod(0.5 + i * 0.6180339887498949, 1.0);
    const auto target = std::min<std::uint64_t>(
        spec.universe / 2,
        static_cast<std::uint64_t>(lo * std::pow(spec.size_spread, u)));
    std::vector<std::uint64_t> s;
    while (s.size() < target) {
      const std::uint64_t x = rng.below(spec.universe);
      if (!seen[x]) {
        seen[x] = 1;
        s.push_back(x);
      }
    }
    for (const std::uint64_t x : s) seen[x] = 0;
    std::sort(s.begin(), s.end());
    c.sets.push_back(std::move(s));
  }
  return c;
}

batmap::BatmapStore build_store(const Corpus& c) {
  batmap::BatmapStore store(c.universe);
  for (const auto& s : c.sets) store.add(s);
  return store;
}

std::vector<ReadQuery> make_read_stream(const CorpusSpec& spec,
                                        std::uint64_t seed, std::size_t n) {
  std::vector<ReadQuery> out(n);
  Xoshiro256 rng(seed ^ 0x5eadull);
  const repro::mining::ZipfSampler zipf_ids(spec.sets, spec.zipf);
  const auto zipf = [&](Xoshiro256& r) { return zipf_ids.sample(r.uniform()); };
  // The mix is exact in every block of 100 requests, in a seeded order
  // within the block, so every stretch of the stream holds the same share
  // of each kind: the costly top-k sweeps do not bunch up by chance and
  // move a run's throughput or tail.
  constexpr std::uint32_t kBlock = 100;
  std::vector<std::uint32_t> draws(kBlock);
  for (std::uint32_t i = 0; i < kBlock; ++i) draws[i] = i * (1000 / kBlock);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kBlock == 0) {
      for (std::uint32_t j = kBlock - 1; j > 0; --j) {
        std::swap(draws[j], draws[rng.below(j + 1)]);
      }
    }
    ReadQuery& r = out[i];
    svc::Query& q = r.q;
    const std::uint32_t draw = draws[i % kBlock];
    q.a = zipf(rng);
    if (draw < spec.topk_permille) {
      r.kind = 'T';
      q.kind = svc::QueryKind::kTopK;
      q.k = 1 + static_cast<std::uint32_t>(rng.below(8));
      r.line = "T " + std::to_string(q.a) + " " + std::to_string(q.k);
    } else if (draw < spec.topk_permille + spec.kway_permille) {
      const bool rule = rng.below(2) == 1;
      r.kind = rule ? 'R' : 'K';
      q.kind = rule ? svc::QueryKind::kRuleScore : svc::QueryKind::kKway;
      q.nids = static_cast<std::uint8_t>(2 + rng.below(svc::kMaxKwayIds - 1));
      r.line = std::string(1, r.kind) + " " + std::to_string(q.nids);
      for (std::uint32_t j = 0; j < q.nids; ++j) {
        q.ids[j] = zipf(rng);
        r.line += ' ';
        r.line += std::to_string(q.ids[j]);
      }
      q.a = q.ids[0];
    } else {
      const bool support =
          draw < spec.topk_permille + spec.kway_permille + spec.support_permille;
      r.kind = support ? 'S' : 'I';
      q.kind = support ? svc::QueryKind::kSupport : svc::QueryKind::kIntersect;
      q.b = zipf(rng);
      if (q.b == q.a) q.b = (q.a + 1) % spec.sets;
      r.line = std::string(1, r.kind);
      r.line += ' ';
      r.line += std::to_string(q.a);
      r.line += ' ';
      r.line += std::to_string(q.b);
    }
  }
  return out;
}

const std::string& Oracle::expected(const ReadQuery& r) {
  const auto hit = memo_.find(r.line);
  if (hit != memo_.end()) return hit->second;
  const svc::Query& q = r.q;
  std::string out = "OK ";
  switch (r.kind) {
    case 'I':
      out += std::to_string(store_.intersection_size(q.a, q.b));
      break;
    case 'S':
      out += std::to_string(store_.raw_count(q.a, q.b));
      break;
    case 'T': {
      auto& rank = ranking_[q.a];
      if (rank.empty()) {
        for (std::uint32_t id = 0; id < store_.size(); ++id) {
          if (id != q.a) rank.emplace_back(store_.intersection_size(q.a, id), id);
        }
        std::sort(rank.begin(), rank.end(), [](const auto& x, const auto& y) {
          return x.first != y.first ? x.first > y.first : x.second < y.second;
        });
      }
      const std::size_t m = std::min<std::size_t>(q.k, rank.size());
      out += std::to_string(m);
      for (std::size_t j = 0; j < m; ++j) {
        out += ' ';
        out += std::to_string(rank[j].second);
        out += ':';
        out += std::to_string(rank[j].first);
      }
      break;
    }
    default: {  // K and R: fold sorted lists in operand order
      const auto first = store_.elements(q.ids[0]);
      std::vector<std::uint64_t> cur(first.begin(), first.end()), next;
      std::uint64_t ante = cur.size();
      for (std::uint32_t j = 1; j < q.nids; ++j) {
        const auto other = store_.elements(q.ids[j]);
        next.clear();
        std::set_intersection(cur.begin(), cur.end(), other.begin(),
                              other.end(), std::back_inserter(next));
        cur.swap(next);
        if (j + 2 == q.nids) ante = cur.size();
      }
      out += std::to_string(cur.size());
      if (r.kind == 'R') {
        out += ' ';
        out += std::to_string(ante);
      }
      break;
    }
  }
  return memo_.emplace(r.line, std::move(out)).first->second;
}

WriteModel::WriteModel(const Corpus& base, std::uint32_t conns,
                       std::uint64_t seed, double zipf_theta)
    : universe_(base.universe),
      conns_(conns),
      seed_(seed),
      zipf_(static_cast<std::uint32_t>(base.sets.size()), zipf_theta) {
  const std::size_t words = (universe_ + 63) / 64;
  for (const auto& s : base.sets) {
    std::vector<std::uint64_t> b(words);
    for (const std::uint64_t x : s) b[x / 64] |= 1ull << (x % 64);
    bits_.push_back(std::move(b));
    size_.push_back(s.size());
    base_size_.push_back(s.size());
  }
  for (std::uint32_t c = 0; c < conns; ++c) {
    rng_.emplace_back(seed ^ (0x3417e5ull + c * 0x9e3779b97f4a7c15ull));
  }
}

bool WriteModel::is_write(std::uint64_t g) const {
  // Exactly one write in every block of 1000 / write_permille_ requests, at
  // a seeded position, so the write share does not drift within a run.
  const std::uint64_t block = 1000 / write_permille_;
  std::uint64_t z = (seed_ ^ 0x77a1e5ull) + (g / block) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return g % block == (z ^ (z >> 31)) % block;
}

std::uint8_t WriteModel::next(std::uint32_t conn, std::string& out,
                              svc::Query& q) {
  Xoshiro256& rng = rng_[conn];
  const auto nsets = static_cast<std::uint32_t>(bits_.size());
  std::uint32_t set = zipf_.sample(rng.uniform());
  set = set - set % conns_ + conn;
  if (set >= nsets) set -= conns_;
  auto& b = bits_[set];
  const std::uint64_t want = 1 + rng.below(4);
  bool del = rng.below(2) == 1;
  if (size_[set] < base_size_[set] / 2 + want) del = false;
  if (size_[set] > base_size_[set] * 2) del = true;
  q = svc::Query{};
  q.kind = del ? svc::QueryKind::kDelete : svc::QueryKind::kAdd;
  q.a = set;
  out += del ? "D " : "A ";
  out += std::to_string(set);
  while (q.nids < want) {
    std::uint64_t x = rng.below(universe_);
    if (del) {
      // The first member at or after x (wrapping).
      while (!(b[x / 64] >> (x % 64) & 1)) x = x + 1 == universe_ ? 0 : x + 1;
      b[x / 64] &= ~(1ull << (x % 64));
      --size_[set];
    } else {
      if (b[x / 64] >> (x % 64) & 1) continue;
      b[x / 64] |= 1ull << (x % 64);
      ++size_[set];
    }
    q.ids[q.nids++] = static_cast<std::uint32_t>(x);
    out += ' ';
    out += std::to_string(x);
  }
  return q.nids;
}

Corpus WriteModel::current() const {
  Corpus c;
  c.universe = universe_;
  for (const auto& b : bits_) {
    std::vector<std::uint64_t> s;
    for (std::uint64_t x = 0; x < universe_; ++x) {
      if (b[x / 64] >> (x % 64) & 1) s.push_back(x);
    }
    c.sets.push_back(std::move(s));
  }
  return c;
}

}  // namespace perfbench
