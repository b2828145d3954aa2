#include "bayes/reliability.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "bayes/compiled.hpp"

namespace icsdiv::bayes {

void ReliabilityProblem::validate() const {
  require(source < node_count && target < node_count, "ReliabilityProblem",
          "source/target out of range");
  for (const ReliabilityEdge& edge : edges) {
    require(edge.from < node_count && edge.to < node_count, "ReliabilityProblem",
            "edge endpoint out of range");
    require(edge.probability >= 0.0 && edge.probability <= 1.0, "ReliabilityProblem",
            "edge probability must be in [0,1]");
  }
}

namespace {

using Edge = ReliabilityEdge;

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Working copy of a problem during factoring.
struct State {
  std::size_t node_count;
  std::vector<Edge> edges;
  std::uint32_t source;
  std::uint32_t target;
};

[[nodiscard]] std::uint64_t key_of(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}
[[nodiscard]] std::uint64_t key_of(const Edge& e) { return key_of(e.from, e.to); }

/// The parallel-edge index: (from, to) → slot in the edge list.  Linear
/// probing at load ≤ 1/2 with backward-shift deletion, so erasing leaves
/// no tombstones behind.
class EdgeIndex {
 public:
  void reset(std::size_t edge_count) {
    std::size_t capacity = 16;
    while (capacity < 2 * edge_count) capacity *= 2;
    slots_.assign(capacity, Slot{0, kNone});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
  }

  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].value == kNone) return kNone;
      if (slots_[i].key == key) return slots_[i].value;
    }
  }

  /// `key` must be absent.
  void insert(std::uint64_t key, std::uint32_t value) {
    std::size_t i = home(key);
    while (slots_[i].value != kNone) i = (i + 1) & mask_;
    slots_[i] = Slot{key, value};
  }

  /// `key` must be present.
  void assign(std::uint64_t key, std::uint32_t value) { slots_[locate(key)].value = value; }

  /// `key` must be present.
  void erase(std::uint64_t key) {
    std::size_t hole = locate(key);
    for (std::size_t i = (hole + 1) & mask_; slots_[i].value != kNone; i = (i + 1) & mask_) {
      // Slot i may fill the hole unless its home lies cyclically in (hole, i].
      if (((i - home(slots_[i].key)) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].value = kNone;
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint32_t value;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  [[nodiscard]] std::size_t locate(std::uint64_t key) const {
    std::size_t i = home(key);
    while (slots_[i].key != key || slots_[i].value == kNone) i = (i + 1) & mask_;
    return i;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

/// Exact factoring with series/parallel/irrelevant-branch reductions.
///
/// `reduce` reaches the same fixed point, through the same rule
/// applications in the same order, as a loop that re-runs every rule
/// after each change ("sweep"):
///
///   A. scan the edge list, swap-removing self-loops and p=0 edges and
///      absorbing each p=1 edge out of the source (its head is renamed to
///      the source);
///   B. stably erase edges into the source;
///   C. relevance pruning — stably erase edges off every source→target
///      path (the whole list when the target is unreachable);
///   D. merge parallel edges: scanning up, the first edge whose (from, to)
///      was already seen folds into that earlier edge and is swap-removed;
///   E. series-contract the lowest-index vertex v ∉ {s, t} with exactly one
///      in-edge u→v and one out-edge v→w, u ≠ w: u→v becomes u→w with
///      p·p', v→w is swap-removed.  One contraction per sweep.
///
/// A and B change nothing unless an edge is dead, certain out of the
/// source or points into the source, and C changes nothing unless A/B
/// removed or renamed an edge: D and E preserve reachability between
/// surviving vertices.  So those phases only run on a sweep that can
/// change something, and every other sweep is O(1) amortised: D and E
/// work off incrementally maintained in/out degrees, XOR-folded incident
/// edge slots (a degree-1 vertex's XOR is its unique edge's slot), the
/// (from, to) index and a bitset of contractible vertices.  A contraction
/// can create at most one parallel pair (the (from, to) keys were unique
/// after D), which the next sweep's D merges directly.  Vertex ids are
/// compacted, order-preserving, whenever C runs and before each factoring
/// split, so the lowest-index choice is unchanged and scratch stays
/// proportional to the live edges.  Probabilities are therefore
/// bit-identical to the sweep-by-sweep loop, and the feasibility decision
/// sees the same residual edge count.
class ExactSolver {
 public:
  explicit ExactSolver(const support::CancelToken& cancel) : cancel_(cancel) {}

  double solve(State s, std::size_t max_edges, int depth) {
    reduce(s);
    if (s.source == s.target) return 1.0;
    if (s.edges.empty()) return 0.0;
    require(depth < 64, "reliability_exact", "factoring recursion too deep");
    require(s.edges.size() <= max_edges, "reliability_exact",
            "reduced problem still too large for exact factoring");
    compact(s);

    // Factor on an edge out of the source (guaranteed to exist after
    // reduction, since the target is forward-reachable).
    std::size_t pivot = s.edges.size();
    for (std::size_t i = 0; i < s.edges.size(); ++i) {
      if (s.edges[i].from == s.source) {
        pivot = i;
        break;
      }
    }
    ensure(pivot < s.edges.size(), "reliability_exact", "no source edge after reduction");
    const double p = s.edges[pivot].probability;

    // Condition on the edge being up: its head joins the source.
    State up = s;
    up.edges[pivot].probability = 1.0;
    // Condition on the edge being down: remove it.
    State down = std::move(s);
    down.edges[pivot] = down.edges.back();
    down.edges.pop_back();

    double result = 0.0;
    if (p > 0.0) result += p * solve(std::move(up), max_edges, depth + 1);
    if (p < 1.0) result += (1.0 - p) * solve(std::move(down), max_edges, depth + 1);
    return result;
  }

 private:
  void reduce(State& s) {
    bool scan = true;     // phases A/B may find something
    bool rebuild = true;  // the edge list changed behind the incremental index
    bool pending = false;
    for (;;) {
      cancel_.check("bayes.exact");
      if (s.source == s.target) return;
      bool changed = false;
      if (scan) {
        scan = false;
        bool absorbed = false;
        if (!scan_edges(s, changed, absorbed)) return;
        // An absorption renames edges the scan has already passed; they
        // are examined on the next sweep.
        scan = absorbed;
        const std::size_t before = s.edges.size();
        std::erase_if(s.edges, [&](const Edge& e) { return e.to == s.source; });
        rebuild = rebuild || changed || s.edges.size() != before;
      }
      if (rebuild) {
        const std::size_t before = s.edges.size();
        if (!prune(s)) return;  // disconnected: probability 0
        changed = changed || s.edges.size() != before;
        changed = merge_all(s, scan) || changed;
        build_index(s);
        rebuild = false;
        pending = false;
      } else if (pending) {
        merge_pending(s, scan);
        changed = true;
        pending = false;
      }
      if (contract(s, scan, pending)) changed = true;
      if (!changed) return;
    }
  }

  /// True when phase A would act on `e` (a merge or contraction just set
  /// its probability): it died, or it became a certain edge out of the
  /// source.
  static bool settles(const State& s, const Edge& e) {
    return e.probability <= 0.0 || (e.from == s.source && e.probability >= 1.0);
  }

  /// Phase A.  Returns false when a certain edge joins source and target.
  static bool scan_edges(State& s, bool& changed, bool& absorbed) {
    for (std::size_t i = 0; i < s.edges.size();) {
      Edge& e = s.edges[i];
      if (e.from == e.to || e.probability <= 0.0) {
        e = s.edges.back();
        s.edges.pop_back();
        changed = true;
        continue;
      }
      if (e.from == s.source && e.probability >= 1.0) {
        const std::uint32_t head = e.to;
        if (head == s.target) {
          s.source = s.target;  // certain connection
          return false;
        }
        for (Edge& other : s.edges) {
          if (other.from == head) other.from = s.source;
          if (other.to == head) other.to = s.source;
        }
        changed = true;
        absorbed = true;
        continue;  // re-examine slot i (the edge there may have mutated)
      }
      ++i;
    }
    return true;
  }

  /// Phase C over a CSR of the current edges, then compaction.  Returns
  /// false (edges cleared) when the target is unreachable.
  bool prune(State& s) {
    const std::size_t n = s.node_count;
    const std::size_t m = s.edges.size();
    out_offsets_.assign(n + 1, 0);
    in_offsets_.assign(n + 1, 0);
    for (const Edge& e : s.edges) {
      ++out_offsets_[e.from + 1];
      ++in_offsets_[e.to + 1];
    }
    for (std::size_t v = 0; v < n; ++v) {
      out_offsets_[v + 1] += out_offsets_[v];
      in_offsets_[v + 1] += in_offsets_[v];
    }
    out_heads_.resize(m);
    in_tails_.resize(m);
    cursor_.assign(out_offsets_.begin(), out_offsets_.end() - 1);
    for (const Edge& e : s.edges) out_heads_[cursor_[e.from]++] = e.to;
    cursor_.assign(in_offsets_.begin(), in_offsets_.end() - 1);
    for (const Edge& e : s.edges) in_tails_[cursor_[e.to]++] = e.from;

    constexpr std::uint8_t kForward = 1;
    constexpr std::uint8_t kBackward = 2;
    seen_.assign(n, 0);
    const auto walk = [&](std::uint32_t start, std::uint8_t bit,
                           const std::vector<std::uint32_t>& offsets,
                           const std::vector<std::uint32_t>& heads) {
      queue_.clear();
      queue_.push_back(start);
      seen_[start] |= bit;
      for (std::size_t q = 0; q < queue_.size(); ++q) {
        const std::uint32_t u = queue_[q];
        for (std::uint32_t k = offsets[u]; k < offsets[u + 1]; ++k) {
          const std::uint32_t v = heads[k];
          if ((seen_[v] & bit) == 0) {
            seen_[v] |= bit;
            queue_.push_back(v);
          }
        }
      }
    };
    walk(s.source, kForward, out_offsets_, out_heads_);
    if ((seen_[s.target] & kForward) == 0) {
      s.edges.clear();
      return false;
    }
    walk(s.target, kBackward, in_offsets_, in_tails_);
    std::erase_if(s.edges, [&](const Edge& e) {
      return (seen_[e.from] & kForward) == 0 || (seen_[e.to] & kBackward) == 0;
    });
    compact(s);
    return true;
  }

  /// Renumbers the vertices still in use (edge endpoints, source, target)
  /// to 0..k-1 in increasing old-id order.
  void compact(State& s) {
    new_id_.assign(s.node_count, kNone);
    new_id_[s.source] = 0;
    new_id_[s.target] = 0;
    for (const Edge& e : s.edges) {
      new_id_[e.from] = 0;
      new_id_[e.to] = 0;
    }
    std::uint32_t next = 0;
    for (std::uint32_t& id : new_id_) {
      if (id != kNone) id = next++;
    }
    for (Edge& e : s.edges) {
      e.from = new_id_[e.from];
      e.to = new_id_[e.to];
    }
    s.source = new_id_[s.source];
    s.target = new_id_[s.target];
    s.node_count = next;
  }

  /// Phase D by full scan; leaves `index_` holding every edge's key.
  bool merge_all(State& s, bool& scan) {
    bool merged = false;
    index_.reset(s.edges.size());
    for (std::size_t i = 0; i < s.edges.size();) {
      const std::uint64_t key = key_of(s.edges[i]);
      const std::uint32_t first = index_.find(key);
      if (first == kNone) {
        index_.insert(key, static_cast<std::uint32_t>(i));
        ++i;
        continue;
      }
      Edge& kept = s.edges[first];
      kept.probability = 1.0 - (1.0 - kept.probability) * (1.0 - s.edges[i].probability);
      scan = scan || settles(s, kept);
      s.edges[i] = s.edges.back();
      s.edges.pop_back();
      merged = true;
    }
    return merged;
  }

  /// Degrees, XOR-folded incident slots and the contractible-vertex
  /// bitset for the current edge list.
  void build_index(const State& s) {
    const std::size_t n = s.node_count;
    in_degree_.assign(n, 0);
    out_degree_.assign(n, 0);
    in_xor_.assign(n, 0);
    out_xor_.assign(n, 0);
    for (std::uint32_t i = 0; i < s.edges.size(); ++i) {
      ++out_degree_[s.edges[i].from];
      out_xor_[s.edges[i].from] ^= i;
      ++in_degree_[s.edges[i].to];
      in_xor_[s.edges[i].to] ^= i;
    }
    contractible_.assign((n + 63) / 64, 0);
    first_word_ = 0;
    for (std::uint32_t v = 0; v < n; ++v) refresh(s, v);
  }

  void refresh(const State& s, std::uint32_t v) {
    const bool eligible = v != s.source && v != s.target && in_degree_[v] == 1 &&
                          out_degree_[v] == 1 &&
                          s.edges[in_xor_[v]].from != s.edges[out_xor_[v]].to;  // not a 2-cycle
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if (eligible) {
      contractible_[v / 64] |= bit;
      first_word_ = std::min<std::size_t>(first_word_, v / 64);
    } else {
      contractible_[v / 64] &= ~bit;
    }
  }

  /// Swap-removes slot `i` (already unlinked from its endpoints' degree
  /// and XOR state), re-indexing the edge moved into it — except in
  /// `index_` when that edge sat at slot `unindexed` (its key is not in
  /// the index right now).
  void remove_slot(State& s, std::uint32_t i, std::uint32_t unindexed) {
    const auto last = static_cast<std::uint32_t>(s.edges.size() - 1);
    if (i != last) {
      const Edge moved = s.edges[last];
      s.edges[i] = moved;
      out_xor_[moved.from] ^= last ^ i;
      in_xor_[moved.to] ^= last ^ i;
      if (last != unindexed) index_.assign(key_of(moved), i);
    }
    s.edges.pop_back();
  }

  /// Phase E.  Returns false when no vertex is contractible.
  bool contract(State& s, bool& scan, bool& pending) {
    std::size_t word = first_word_;
    while (word < contractible_.size() && contractible_[word] == 0) ++word;
    first_word_ = word;
    if (word == contractible_.size()) return false;
    const auto v = static_cast<std::uint32_t>(word * 64 + std::countr_zero(contractible_[word]));

    const std::uint32_t ei = in_xor_[v];
    const std::uint32_t eo = out_xor_[v];
    const std::uint32_t u = s.edges[ei].from;
    const std::uint32_t w = s.edges[eo].to;
    index_.erase(key_of(u, v));
    index_.erase(key_of(v, w));
    s.edges[ei].probability *= s.edges[eo].probability;
    s.edges[ei].to = w;
    in_degree_[v] = out_degree_[v] = 0;
    in_xor_[v] = out_xor_[v] = 0;
    in_xor_[w] ^= eo ^ ei;
    const auto last = static_cast<std::uint32_t>(s.edges.size() - 1);
    remove_slot(s, eo, ei);
    const std::uint32_t slot = ei == last ? eo : ei;

    scan = scan || settles(s, s.edges[slot]);
    const std::uint32_t twin = index_.find(key_of(u, w));
    if (twin == kNone) {
      index_.insert(key_of(u, w), slot);
    } else {
      pending_first_ = std::min(twin, slot);
      pending_second_ = std::max(twin, slot);
      pending = true;
    }
    refresh(s, u);
    refresh(s, v);
    refresh(s, w);
    return true;
  }

  /// Phase D for the one parallel pair the last contraction created: the
  /// later edge folds into the earlier one and is swap-removed.
  void merge_pending(State& s, bool& scan) {
    const std::uint32_t a = pending_first_;
    const std::uint32_t b = pending_second_;
    Edge& kept = s.edges[a];
    kept.probability = 1.0 - (1.0 - kept.probability) * (1.0 - s.edges[b].probability);
    const std::uint32_t u = kept.from;
    const std::uint32_t w = kept.to;
    scan = scan || settles(s, kept);
    index_.assign(key_of(u, w), a);
    --out_degree_[u];
    out_xor_[u] ^= b;
    --in_degree_[w];
    in_xor_[w] ^= b;
    remove_slot(s, b, kNone);
    refresh(s, u);
    refresh(s, w);
  }

  support::CancelToken cancel_;
  // Reachability scratch.
  std::vector<std::uint32_t> out_offsets_, in_offsets_, out_heads_, in_tails_, cursor_, queue_;
  std::vector<std::uint8_t> seen_;
  std::vector<std::uint32_t> new_id_;
  // Incremental series/parallel state of the sweep loop.
  EdgeIndex index_;
  std::vector<std::uint32_t> in_degree_, out_degree_, in_xor_, out_xor_;
  std::vector<std::uint64_t> contractible_;
  std::size_t first_word_ = 0;  ///< no contractible vertex below this word
  std::uint32_t pending_first_ = 0;
  std::uint32_t pending_second_ = 0;
};

}  // namespace

double reliability_exact(const ReliabilityProblem& problem, std::size_t max_edges,
                         const support::CancelToken& cancel) {
  problem.validate();
  State state{problem.node_count, problem.edges, problem.source, problem.target};
  try {
    return ExactSolver(cancel).solve(std::move(state), max_edges, 0);
  } catch (const InvalidArgument& e) {
    throw Infeasible(e.what());
  }
}

double reliability_monte_carlo(const ReliabilityProblem& problem, std::size_t samples,
                               support::Rng& rng) {
  // Facade over the compiled generic-digraph substrate (see compiled.hpp):
  // the CSR adjacency preserves the historical per-node edge order and the
  // lazy per-edge coins consume `rng` in the seed-era sequence, so per-seed
  // estimates are bit-identical to the pre-compiled implementation.
  const CompiledConnectivity compiled(problem);
  return compiled.estimate(samples, rng);
}

}  // namespace icsdiv::bayes
