#include "matching/max_weight_matching.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace freqywm {
namespace {

/// State of one run of the blossom algorithm.
///
/// The implementation follows Galil's exposition ("Efficient algorithms for
/// finding maximum matching in graphs", ACM CSUR 1986) in the concrete
/// formulation popularized by van Rantwijk's reference implementation.
/// Vertices are 0..n-1; blossom slots are n..2n-1. Edge endpoints are
/// encoded as 2k / 2k+1 for edge k. Input weights are doubled internally so
/// every dual update stays integral (delta3 divides a slack by two).
///
/// Every buffer is sized once per run. A stage resets only the slots and
/// edges the previous stage touched. A free vertex keeps its S label until
/// it is matched, and the search reaches it from a descending free list
/// once the queue runs dry. A vertex finds its top-level blossom through
/// a group that each blossom takes over from its largest child, so a new
/// blossom re-points only its smaller children's leaves. Scan, queue and
/// tie-break order are those of the reference formulation (DESIGN.md §16).
class BlossomMatcher {
 public:
  BlossomMatcher(int num_vertices, const std::vector<WeightedEdge>& input)
      : n_(num_vertices) {
    edges_.reserve(input.size());
    for (const auto& e : input) {
      assert(e.u != e.v && e.u >= 0 && e.u < n_ && e.v >= 0 && e.v < n_);
      edges_.push_back(WeightedEdge{e.u, e.v, e.weight * 2});
    }
    m_ = static_cast<int>(edges_.size());

    max_weight_ = 0;
    for (const auto& e : edges_) max_weight_ = std::max(max_weight_, e.weight);

    endpoint_.resize(2 * m_);
    for (int k = 0; k < m_; ++k) {
      endpoint_[2 * k] = edges_[k].u;
      endpoint_[2 * k + 1] = edges_[k].v;
    }
    // Each vertex's remote endpoints, in edge order, as one flat array.
    neighb_begin_.assign(n_ + 1, 0);
    for (const auto& e : edges_) {
      ++neighb_begin_[e.u + 1];
      ++neighb_begin_[e.v + 1];
    }
    for (int v = 0; v < n_; ++v) neighb_begin_[v + 1] += neighb_begin_[v];
    neighb_end_.resize(2 * m_);
    std::vector<int> fill(neighb_begin_.begin(), neighb_begin_.end() - 1);
    for (int k = 0; k < m_; ++k) {
      neighb_end_[fill[edges_[k].u]++] = 2 * k + 1;
      neighb_end_[fill[edges_[k].v]++] = 2 * k;
    }

    mate_.assign(n_, -1);
    // Every vertex starts free, so as an S-labelled root.
    label_.assign(2 * n_, 0);
    for (int v = 0; v < n_; ++v) label_[v] = 1;
    label_end_.assign(2 * n_, -1);
    group_.resize(n_);
    group_top_.resize(n_);
    heavy_leaf_.assign(2 * n_, -1);
    leaf_count_.assign(2 * n_, 0);
    for (int v = 0; v < n_; ++v) {
      group_[v] = group_top_[v] = heavy_leaf_[v] = v;
      leaf_count_[v] = 1;
    }
    blossom_parent_.assign(2 * n_, -1);
    blossom_childs_.assign(2 * n_, {});
    blossom_base_.assign(2 * n_, -1);
    for (int v = 0; v < n_; ++v) blossom_base_[v] = v;
    blossom_endps_.assign(2 * n_, {});
    best_edge_.assign(2 * n_, -1);
    blossom_best_edges_.assign(2 * n_, {});
    has_best_edges_.assign(2 * n_, false);
    best_edge_to_.assign(2 * n_, -1);
    best_slack_to_.assign(2 * n_, 0);
    best_to_set_.assign((2 * n_ + 63) / 64, 0);
    for (int b = 2 * n_ - 1; b >= n_; --b) unused_blossoms_.push_back(b);
    dual_var_.assign(2 * n_, 0);
    for (int v = 0; v < n_; ++v) dual_var_[v] = max_weight_;
    allow_edge_.assign(m_, false);
    free_prev_.resize(n_);
    free_next_.resize(n_);
    for (int v = 0; v < n_; ++v) {
      free_prev_[v] = v - 1;
      free_next_[v] = v + 1 < n_ ? v + 1 : -1;
    }
    free_last_ = n_ - 1;
  }

  std::vector<int> Run() {
    for (int stage = 0; stage < n_; ++stage) {
      // Undo what the previous stage set: labels, best edges and allowed
      // edges all start a stage cleared.
      for (int x : dirty_) {
        label_[x] = 0;
        best_edge_[x] = -1;
        if (x >= n_) {
          blossom_best_edges_[x].clear();
          has_best_edges_[x] = false;
        }
      }
      dirty_.clear();
      for (int k : allowed_) allow_edge_[k] = false;
      allowed_.clear();
      // Every free vertex roots an S-tree and keeps its S label from stage
      // to stage. The roots the last stage reached were reset above; those
      // still free are labelled again, as AssignLabel would label them.
      for (int f : reached_roots_) {
        if (mate_[f] == -1) LabelFreeRoot(f);
      }
      reached_roots_.clear();
      queue_.clear();
      next_root_ = free_last_;

      bool augmented = false;
      while (true) {
        while (!augmented) {
          // The free roots sit below every push of the stage, highest
          // last, as if pushed at its start: pop them once the queue is
          // empty.
          if (queue_.empty()) {
            if (next_root_ == -1) break;
            ReachNextRoot();
          }
          int v = queue_.back();
          queue_.pop_back();
          assert(label_[TopOf(v)] == 1);

          for (int i = neighb_begin_[v]; i < neighb_begin_[v + 1]; ++i) {
            int p = neighb_end_[i];
            int k = p / 2;
            int w = endpoint_[p];
            const int bw = TopOf(w);
            if (TopOf(v) == bw) continue;
            int64_t kslack = 0;
            if (!allow_edge_[k]) {
              kslack = Slack(k);
              if (kslack <= 0) Allow(k);
            }
            if (allow_edge_[k]) {
              if (label_[bw] == 0) {
                AssignLabel(w, 2, p ^ 1);
              } else if (label_[bw] == 1) {
                int base = ScanBlossom(v, w);
                if (base >= 0) {
                  AddBlossom(base, k);
                } else {
                  AugmentMatching(k);
                  augmented = true;
                  break;
                }
              } else if (label_[w] == 0) {
                assert(label_[bw] == 2);
                SetLabel(w, 2);
                label_end_[w] = p ^ 1;
              }
            } else if (label_[bw] == 1) {
              int b = TopOf(v);
              if (best_edge_[b] == -1 || kslack < Slack(best_edge_[b])) {
                best_edge_[b] = k;
              }
            } else if (label_[w] == 0) {
              if (best_edge_[w] == -1) {
                dirty_.push_back(w);
                best_edge_[w] = k;
              } else if (kslack < Slack(best_edge_[w])) {
                best_edge_[w] = k;
              }
            }
          }
        }
        if (augmented) break;

        // No augmenting path under the current duals; compute the minimum
        // delta over the four dual-update cases.
        int delta_type = 1;
        int64_t delta = std::numeric_limits<int64_t>::max();
        int delta_edge = -1;
        int delta_blossom = -1;
        for (int v = 0; v < n_; ++v) delta = std::min(delta, dual_var_[v]);
        delta = std::max<int64_t>(delta, 0);

        for (int v = 0; v < n_; ++v) {
          if (label_[TopOf(v)] == 0 && best_edge_[v] != -1) {
            int64_t d = Slack(best_edge_[v]);
            if (d < delta) {
              delta = d;
              delta_type = 2;
              delta_edge = best_edge_[v];
            }
          }
        }
        for (int b = 0; b < 2 * n_; ++b) {
          if (blossom_parent_[b] == -1 && label_[b] == 1 &&
              best_edge_[b] != -1) {
            int64_t kslack = Slack(best_edge_[b]);
            assert(kslack % 2 == 0);
            int64_t d = kslack / 2;
            if (d < delta) {
              delta = d;
              delta_type = 3;
              delta_edge = best_edge_[b];
            }
          }
        }
        for (int b = n_; b < 2 * n_; ++b) {
          if (blossom_base_[b] >= 0 && blossom_parent_[b] == -1 &&
              label_[b] == 2 && dual_var_[b] < delta) {
            delta = dual_var_[b];
            delta_type = 4;
            delta_blossom = b;
          }
        }

        for (int v = 0; v < n_; ++v) {
          int lbl = label_[TopOf(v)];
          if (lbl == 1) {
            dual_var_[v] -= delta;
          } else if (lbl == 2) {
            dual_var_[v] += delta;
          }
        }
        for (int b = n_; b < 2 * n_; ++b) {
          if (blossom_base_[b] >= 0 && blossom_parent_[b] == -1) {
            if (label_[b] == 1) {
              dual_var_[b] += delta;
            } else if (label_[b] == 2) {
              dual_var_[b] -= delta;
            }
          }
        }

        if (delta_type == 1) {
          break;  // optimum reached
        } else if (delta_type == 2) {
          Allow(delta_edge);
          int i = edges_[delta_edge].u;
          if (label_[TopOf(i)] == 0) i = edges_[delta_edge].v;
          assert(label_[TopOf(i)] == 1);
          queue_.push_back(i);
        } else if (delta_type == 3) {
          Allow(delta_edge);
          int i = edges_[delta_edge].u;
          assert(label_[TopOf(i)] == 1);
          queue_.push_back(i);
        } else {
          ExpandBlossom(delta_blossom, /*endstage=*/false);
        }
      }

      if (!augmented) break;

      // End of stage: expand S-blossoms whose dual hit zero, in ascending
      // slot order. Only a slot labelled this stage can be an S-blossom
      // with a zero dual: a root the stage did not reach kept the non-zero
      // dual it had when the last stage ended.
      expand_.clear();
      for (int x : dirty_) {
        if (x >= n_) expand_.push_back(x);
      }
      std::sort(expand_.begin(), expand_.end());
      expand_.erase(std::unique(expand_.begin(), expand_.end()),
                    expand_.end());
      for (int b : expand_) {
        if (blossom_parent_[b] == -1 && blossom_base_[b] >= 0 &&
            label_[b] == 1 && dual_var_[b] == 0) {
          ExpandBlossom(b, /*endstage=*/true);
        }
      }
#ifndef NDEBUG
      CheckStageEnd();
#endif
    }

#ifndef NDEBUG
    VerifyOptimum();
#endif

    std::vector<int> result(n_, -1);
    for (int v = 0; v < n_; ++v) {
      if (mate_[v] >= 0) result[v] = endpoint_[mate_[v]];
    }
    return result;
  }

 private:
  int64_t Slack(int k) const {
    return dual_var_[edges_[k].u] + dual_var_[edges_[k].v] -
           2 * edges_[k].weight;
  }

  /// The top-level blossom (or the vertex itself) that holds vertex `v`.
  int TopOf(int v) const { return group_top_[group_[v]]; }

  /// Sets a non-zero label and records the slot for the next stage's reset.
  void SetLabel(int x, int t) {
    label_[x] = t;
    dirty_.push_back(x);
  }

  void Allow(int k) {
    if (allow_edge_[k]) return;
    allow_edge_[k] = true;
    allowed_.push_back(k);
  }

  /// Calls `fn` on the leaves of `b` in depth-first child order.
  template <typename Fn>
  void ForEachLeaf(int b, const Fn& fn) {
    if (b < n_) {
      fn(b);
      return;
    }
    for (int t : blossom_childs_[b]) ForEachLeaf(t, fn);
  }

  /// The first leaf of `b`, in `ForEachLeaf` order, that carries a label.
  int FirstLabelledLeaf(int b) const {
    if (b < n_) return label_[b] != 0 ? b : -1;
    for (int t : blossom_childs_[b]) {
      int leaf = FirstLabelledLeaf(t);
      if (leaf != -1) return leaf;
    }
    return -1;
  }

  /// Labels free vertex `f` and its top-level blossom as an S-root, without
  /// recording them: they stay labelled until a stage reaches them.
  void LabelFreeRoot(int f) {
    const int b = TopOf(f);
    assert(blossom_base_[b] == f);
    label_[f] = label_[b] = 1;
    label_end_[f] = label_end_[b] = -1;
    best_edge_[f] = best_edge_[b] = -1;
    if (b >= n_) {
      blossom_best_edges_[b].clear();
      has_best_edges_[b] = false;
    }
  }

  /// Pushes the leaves of the highest free root not yet reached, and
  /// records it for the next stage's reset.
  void ReachNextRoot() {
    const int f = next_root_;
    next_root_ = free_prev_[f];
    const int b = TopOf(f);
    assert(label_[f] == 1 && label_[b] == 1 && label_end_[b] == -1);
    reached_roots_.push_back(f);
    dirty_.push_back(f);
    if (b != f) dirty_.push_back(b);
    ForEachLeaf(b, [&](int leaf) { queue_.push_back(leaf); });
  }

  void AssignLabel(int w, int t, int p) {
    int b = TopOf(w);
    assert(label_[w] == 0 && label_[b] == 0);
    SetLabel(w, t);
    if (b != w) SetLabel(b, t);
    label_end_[w] = label_end_[b] = p;
    best_edge_[w] = best_edge_[b] = -1;
    if (t == 1) {
      ForEachLeaf(b, [&](int leaf) { queue_.push_back(leaf); });
    } else if (t == 2) {
      int base = blossom_base_[b];
      assert(mate_[base] >= 0);
      AssignLabel(endpoint_[mate_[base]], 1, mate_[base] ^ 1);
    }
  }

  int ScanBlossom(int v, int w) {
    scan_path_.clear();
    int base = -1;
    while (v != -1 || w != -1) {
      int b = TopOf(v);
      if (label_[b] & 4) {
        base = blossom_base_[b];
        break;
      }
      assert(label_[b] == 1);
      scan_path_.push_back(b);
      label_[b] = 5;
      assert(label_end_[b] == mate_[blossom_base_[b]]);
      if (label_end_[b] == -1) {
        v = -1;
      } else {
        v = endpoint_[label_end_[b]];
        b = TopOf(v);
        assert(label_[b] == 2);
        assert(label_end_[b] >= 0);
        v = endpoint_[label_end_[b]];
      }
      if (w != -1) std::swap(v, w);
    }
    for (int b : scan_path_) label_[b] = 1;
    return base;
  }

  void AddBlossom(int base, int k) {
    int v = edges_[k].u;
    int w = edges_[k].v;
    int bb = TopOf(base);
    int bv = TopOf(v);
    int bw = TopOf(w);

    assert(!unused_blossoms_.empty());
    int b = unused_blossoms_.back();
    unused_blossoms_.pop_back();
    blossom_base_[b] = base;
    blossom_parent_[b] = -1;
    blossom_parent_[bb] = b;

    std::vector<int>& path = blossom_childs_[b];
    std::vector<int>& endps = blossom_endps_[b];
    path.clear();
    endps.clear();

    while (bv != bb) {
      blossom_parent_[bv] = b;
      path.push_back(bv);
      endps.push_back(label_end_[bv]);
      assert(label_[bv] == 2 ||
             (label_[bv] == 1 &&
              label_end_[bv] == mate_[blossom_base_[bv]]));
      assert(label_end_[bv] >= 0);
      v = endpoint_[label_end_[bv]];
      bv = TopOf(v);
    }
    path.push_back(bb);
    std::reverse(path.begin(), path.end());
    std::reverse(endps.begin(), endps.end());
    endps.push_back(2 * k);

    while (bw != bb) {
      blossom_parent_[bw] = b;
      path.push_back(bw);
      endps.push_back(label_end_[bw] ^ 1);
      assert(label_[bw] == 2 ||
             (label_[bw] == 1 &&
              label_end_[bw] == mate_[blossom_base_[bw]]));
      assert(label_end_[bw] >= 0);
      w = endpoint_[label_end_[bw]];
      bw = TopOf(w);
    }

    assert(label_[bb] == 1);
    SetLabel(b, 1);
    label_end_[b] = label_end_[bb];
    dual_var_[b] = 0;

    // The blossom takes over the group of its largest child (the first on
    // ties), so only the other children's leaves are re-pointed. Leaves of
    // T-labelled children become S-vertices and go on the queue, in
    // depth-first child order.
    int heavy = path[0];
    int leaves = 0;
    for (int child : path) {
      leaves += leaf_count_[child];
      if (leaf_count_[child] > leaf_count_[heavy]) heavy = child;
    }
    const int group = heavy_leaf_[heavy];
    heavy_leaf_[b] = group;
    leaf_count_[b] = leaves;
    group_top_[group] = b;
    for (int child : path) {
      const bool push = label_[child] == 2;
      if (child == heavy) {
        if (push) ForEachLeaf(child, [&](int leaf) { queue_.push_back(leaf); });
        continue;
      }
      ForEachLeaf(child, [&](int leaf) {
        if (push) queue_.push_back(leaf);
        group_[leaf] = group;
      });
    }

    // Compute the least-slack edges from the new blossom to every other
    // S-blossom (used by delta3), keyed by that blossom's slot.
    for (int child : path) {
      if (!has_best_edges_[child]) {
        ForEachLeaf(child, [&](int leaf) {
          for (int i = neighb_begin_[leaf]; i < neighb_begin_[leaf + 1]; ++i) {
            OfferBestEdgeTo(b, neighb_end_[i] / 2);
          }
        });
      } else {
        for (int ke : blossom_best_edges_[child]) OfferBestEdgeTo(b, ke);
      }
      blossom_best_edges_[child].clear();
      has_best_edges_[child] = false;
      best_edge_[child] = -1;
    }
    // Keep them in ascending slot order, and the least-slack one of those
    // (first on ties) as the blossom's own best edge.
    std::vector<int>& best_edges = blossom_best_edges_[b];
    best_edges.clear();
    best_edge_[b] = -1;
    int64_t best_slack = 0;
    for (size_t word = 0; word < best_to_set_.size(); ++word) {
      for (uint64_t bits = best_to_set_[word]; bits != 0; bits &= bits - 1) {
        const int bj = static_cast<int>(word * 64) + __builtin_ctzll(bits);
        const int ke = best_edge_to_[bj];
        best_edges.push_back(ke);
        if (best_edge_[b] == -1 || best_slack_to_[bj] < best_slack) {
          best_edge_[b] = ke;
          best_slack = best_slack_to_[bj];
        }
        best_edge_to_[bj] = -1;
      }
      best_to_set_[word] = 0;
    }
    has_best_edges_[b] = true;
  }

  /// Keeps edge `ke` of new blossom `b` if it is the least-slack edge so
  /// far to the S-blossom at its other end.
  void OfferBestEdgeTo(int b, int ke) {
    int j = edges_[ke].v;
    if (TopOf(j) == b) j = edges_[ke].u;
    const int bj = TopOf(j);
    if (bj == b || label_[bj] != 1) return;
    const int64_t slack = Slack(ke);
    if (best_edge_to_[bj] == -1) {
      best_to_set_[bj / 64] |= uint64_t{1} << (bj % 64);
    } else if (slack >= best_slack_to_[bj]) {
      return;
    }
    best_edge_to_[bj] = ke;
    best_slack_to_[bj] = slack;
  }

  void ExpandBlossom(int b, bool endstage) {
    // The largest child gets the group back; the others' leaves are
    // pointed at their own groups before a child is expanded in turn.
    for (int s : blossom_childs_[b]) {
      blossom_parent_[s] = -1;
      const int group = heavy_leaf_[s];
      if (group != heavy_leaf_[b]) {
        ForEachLeaf(s, [&](int leaf) { group_[leaf] = group; });
      }
      group_top_[group] = s;
      if (s >= n_ && endstage && dual_var_[s] == 0) ExpandBlossom(s, endstage);
    }

    if (!endstage && label_[b] == 2) {
      assert(label_end_[b] >= 0);
      int entry_child = TopOf(endpoint_[label_end_[b] ^ 1]);
      int j = 0;
      const int len = static_cast<int>(blossom_childs_[b].size());
      for (int idx = 0; idx < len; ++idx) {
        if (blossom_childs_[b][idx] == entry_child) {
          j = idx;
          break;
        }
      }
      int jstep, endptrick;
      if (j & 1) {
        j -= len;
        jstep = 1;
        endptrick = 0;
      } else {
        jstep = -1;
        endptrick = 1;
      }
      auto child_at = [&](int idx) {
        return blossom_childs_[b][(idx % len + len) % len];
      };
      auto endp_at = [&](int idx) {
        return blossom_endps_[b][(idx % len + len) % len];
      };

      int p = label_end_[b];
      while (j != 0) {
        label_[endpoint_[p ^ 1]] = 0;
        label_[endpoint_[endp_at(j - endptrick) ^ endptrick ^ 1]] = 0;
        AssignLabel(endpoint_[p ^ 1], 2, p);
        Allow(endp_at(j - endptrick) / 2);
        j += jstep;
        p = endp_at(j - endptrick) ^ endptrick;
        Allow(p / 2);
        j += jstep;
      }
      int bv = child_at(j);
      SetLabel(endpoint_[p ^ 1], 2);
      SetLabel(bv, 2);
      label_end_[endpoint_[p ^ 1]] = label_end_[bv] = p;
      best_edge_[bv] = -1;
      j += jstep;
      while (child_at(j) != entry_child) {
        bv = child_at(j);
        if (label_[bv] == 1) {
          j += jstep;
          continue;
        }
        int reached = FirstLabelledLeaf(bv);
        if (reached != -1) {
          assert(label_[reached] == 2);
          assert(TopOf(reached) == bv);
          label_[reached] = 0;
          label_[endpoint_[mate_[blossom_base_[bv]]]] = 0;
          AssignLabel(reached, 2, label_end_[reached]);
        }
        j += jstep;
      }
    }

    SetLabel(b, -1);
    label_end_[b] = -1;
    blossom_childs_[b].clear();
    blossom_endps_[b].clear();
    blossom_base_[b] = -1;
    blossom_best_edges_[b].clear();
    has_best_edges_[b] = false;
    best_edge_[b] = -1;
    unused_blossoms_.push_back(b);
  }

  void AugmentBlossom(int b, int v) {
    int t = v;
    while (blossom_parent_[t] != b) t = blossom_parent_[t];
    if (t >= n_) AugmentBlossom(t, v);

    std::vector<int>& childs = blossom_childs_[b];
    std::vector<int>& endps = blossom_endps_[b];
    const int len = static_cast<int>(childs.size());
    int i = 0;
    for (int idx = 0; idx < len; ++idx) {
      if (childs[idx] == t) {
        i = idx;
        break;
      }
    }
    int j = i;
    int jstep, endptrick;
    if (i & 1) {
      j -= len;
      jstep = 1;
      endptrick = 0;
    } else {
      jstep = -1;
      endptrick = 1;
    }
    auto child_at = [&](int idx) { return childs[(idx % len + len) % len]; };
    auto endp_at = [&](int idx) { return endps[(idx % len + len) % len]; };

    while (j != 0) {
      j += jstep;
      t = child_at(j);
      int p = endp_at(j - endptrick) ^ endptrick;
      if (t >= n_) AugmentBlossom(t, endpoint_[p]);
      j += jstep;
      t = child_at(j);
      if (t >= n_) AugmentBlossom(t, endpoint_[p ^ 1]);
      mate_[endpoint_[p]] = p ^ 1;
      mate_[endpoint_[p ^ 1]] = p;
    }

    // Rotate so the child holding the new base comes first.
    std::rotate(childs.begin(), childs.begin() + i, childs.end());
    std::rotate(endps.begin(), endps.begin() + i, endps.end());
    blossom_base_[b] = blossom_base_[childs[0]];
    assert(blossom_base_[b] == v);
  }
  void AugmentMatching(int k) {
    const int kv = edges_[k].u;
    const int kw = edges_[k].v;
    const int starts[2][2] = {{kv, 2 * k + 1}, {kw, 2 * k}};
    for (const auto& start : starts) {
      int s = start[0];
      int p = start[1];
      while (true) {
        int bs = TopOf(s);
        assert(label_[bs] == 1);
        assert(label_end_[bs] == mate_[blossom_base_[bs]]);
        const int root = blossom_base_[bs];
        if (bs >= n_) AugmentBlossom(bs, s);
        mate_[s] = p;
        if (label_end_[bs] == -1) {
          MatchRoot(root, bs);
          break;
        }
        int t = endpoint_[label_end_[bs]];
        int bt = TopOf(t);
        assert(label_[bt] == 2);
        assert(label_end_[bt] >= 0);
        s = endpoint_[label_end_[bt]];
        int j = endpoint_[label_end_[bt] ^ 1];
        assert(blossom_base_[bt] == t);
        if (bt >= n_) AugmentBlossom(bt, j);
        mate_[j] = label_end_[bt];
        p = label_end_[bt] ^ 1;
      }
    }
  }

  /// Takes free vertex `f`, the root the augmenting path ended at in
  /// blossom `b`, off the free list, and records both slots for the next
  /// stage's reset: the stage may not have reached them.
  void MatchRoot(int f, int b) {
    dirty_.push_back(f);
    dirty_.push_back(b);
    const int prev = free_prev_[f];
    const int next = free_next_[f];
    if (prev != -1) free_next_[prev] = next;
    if (next != -1) {
      free_prev_[next] = prev;
    } else {
      free_last_ = prev;
    }
  }

#ifndef NDEBUG
  /// Checks that every vertex's group names the top-level blossom reached
  /// by walking `blossom_parent_`.
  void CheckMembership() const {
    std::vector<int> top(2 * n_, -1);
    for (int v = 0; v < n_; ++v) {
      int x = v;
      while (top[x] == -1 && blossom_parent_[x] != -1) x = blossom_parent_[x];
      const int root = top[x] == -1 ? x : top[x];
      for (int y = v; top[y] == -1; y = blossom_parent_[y]) {
        top[y] = root;
        if (y == x) break;
      }
      assert(TopOf(v) == root);
    }
  }

  /// Checks membership, and that every free root is labelled S with a
  /// top-level blossom whose dual is not zero: the end-of-stage expansion
  /// looks only at slots the stage labelled, so it must miss no root.
  void CheckStageEnd() const {
    CheckMembership();
    for (int f = free_last_; f != -1; f = free_prev_[f]) {
      const int b = TopOf(f);
      assert(mate_[f] == -1 && blossom_base_[b] == f);
      assert(label_[f] == 1 && label_[b] == 1);
      assert(b < n_ || dual_var_[b] > 0);
    }
  }

  /// Checks LP dual feasibility and complementary slackness — the standard
  /// certificate that the produced matching is optimal.
  void VerifyOptimum() const {
    CheckMembership();
    for (int v = 0; v < n_; ++v) {
      assert(dual_var_[v] >= 0 || mate_[v] >= 0);
    }
    for (int k = 0; k < m_; ++k) {
      int64_t s = Slack(k);
      // Slack must be non-negative except where blossom duals compensate;
      // full verification mirrors van Rantwijk's verifyOptimum.
      int i = edges_[k].u;
      int j = edges_[k].v;
      std::vector<int> iblossoms{i}, jblossoms{j};
      while (blossom_parent_[iblossoms.back()] != -1) {
        iblossoms.push_back(blossom_parent_[iblossoms.back()]);
      }
      while (blossom_parent_[jblossoms.back()] != -1) {
        jblossoms.push_back(blossom_parent_[jblossoms.back()]);
      }
      int64_t extra = 0;
      size_t a = 0;
      // Common blossoms contribute 2 * z_b to the edge's dual sum.
      while (a < iblossoms.size() && a < jblossoms.size()) {
        size_t ri = iblossoms.size() - 1 - a;
        size_t rj = jblossoms.size() - 1 - a;
        if (iblossoms[ri] != jblossoms[rj]) break;
        if (iblossoms[ri] >= n_) extra += 2 * dual_var_[iblossoms[ri]];
        ++a;
      }
      s += extra;
      assert(s >= 0);
      if (mate_[i] >= 0 && mate_[i] / 2 == k) {
        assert(mate_[i] / 2 == mate_[j] / 2);
        assert(s == 0);
      }
    }
  }
#endif

  int n_;
  std::vector<WeightedEdge> edges_;
  int m_ = 0;
  int64_t max_weight_ = 0;

  std::vector<int> endpoint_;
  std::vector<int> neighb_begin_;
  std::vector<int> neighb_end_;
  std::vector<int> mate_;
  std::vector<int> label_;
  std::vector<int> label_end_;
  // Blossom membership: vertex v's top-level blossom is
  // group_top_[group_[v]]. A group is named after a leaf, and a slot's
  // group (`heavy_leaf_`) is that of its largest child, down to a vertex.
  std::vector<int> group_;
  std::vector<int> group_top_;
  std::vector<int> heavy_leaf_;
  std::vector<int> leaf_count_;
  std::vector<int> blossom_parent_;
  std::vector<std::vector<int>> blossom_childs_;
  std::vector<int> blossom_base_;
  std::vector<std::vector<int>> blossom_endps_;
  std::vector<int> best_edge_;
  std::vector<std::vector<int>> blossom_best_edges_;
  std::vector<char> has_best_edges_;
  // Per-blossom scratch for AddBlossom: the least-slack edge and its slack
  // to each S-blossom slot, and a bitset of the slots set (reset after use).
  std::vector<int> best_edge_to_;
  std::vector<int64_t> best_slack_to_;
  std::vector<uint64_t> best_to_set_;
  std::vector<int> unused_blossoms_;
  std::vector<int64_t> dual_var_;
  std::vector<char> allow_edge_;
  std::vector<int> queue_;
  // Free vertices as a list in ascending order, linked both ways, and the
  // next one a stage reaches; -1 ends the list.
  std::vector<int> free_prev_;
  std::vector<int> free_next_;
  int free_last_ = -1;
  int next_root_ = -1;
  // Free vertices reached this stage: what the next stage labels again.
  std::vector<int> reached_roots_;
  // Slots given a label or best edge this stage, and edges allowed this
  // stage: what the next stage resets.
  std::vector<int> dirty_;
  std::vector<int> allowed_;
  std::vector<int> scan_path_;
  std::vector<int> expand_;
};

}  // namespace

std::vector<int> MaxWeightMatching(int num_vertices,
                                   const std::vector<WeightedEdge>& edges) {
  if (num_vertices <= 0) return {};
  // Run the blossom over the active vertices only (those with a
  // non-self-loop edge), renumbered in order. An isolated vertex is always
  // single and never changes a dual update, so the compacted run returns
  // the same mate as the full one (DESIGN.md §16), at O(active^3).
  std::vector<int> compact_id(num_vertices, -1);
  for (const auto& e : edges) {
    assert(e.u >= 0 && e.u < num_vertices && e.v >= 0 && e.v < num_vertices);
    if (e.u == e.v) continue;
    compact_id[e.u] = 0;
    compact_id[e.v] = 0;
  }
  std::vector<int> vertex_of;
  for (int v = 0; v < num_vertices; ++v) {
    if (compact_id[v] == -1) continue;
    compact_id[v] = static_cast<int>(vertex_of.size());
    vertex_of.push_back(v);
  }
  std::vector<int> mate(num_vertices, -1);
  if (vertex_of.empty()) return mate;

  std::vector<WeightedEdge> compact_edges;
  compact_edges.reserve(edges.size());
  for (const auto& e : edges) {
    if (e.u == e.v) continue;
    compact_edges.push_back(
        WeightedEdge{compact_id[e.u], compact_id[e.v], e.weight});
  }
  BlossomMatcher matcher(static_cast<int>(vertex_of.size()), compact_edges);
  const std::vector<int> compact_mate = matcher.Run();
  for (size_t c = 0; c < compact_mate.size(); ++c) {
    if (compact_mate[c] >= 0) mate[vertex_of[c]] = vertex_of[compact_mate[c]];
  }
  return mate;
}

int64_t MatchingWeight(const std::vector<int>& mate,
                       const std::vector<WeightedEdge>& edges) {
  // A matched pair counts once, whichever orientation its edges are given
  // in; among parallel edges joining it, the heaviest counts.
  const int n = static_cast<int>(mate.size());
  std::vector<char> seen(mate.size(), 0);
  std::vector<int64_t> pair_weight(mate.size(), 0);
  for (const auto& e : edges) {
    if (e.u == e.v || e.u < 0 || e.v < 0 || e.u >= n || e.v >= n) continue;
    if (mate[e.u] != e.v || mate[e.v] != e.u) continue;
    const int low = std::min(e.u, e.v);
    if (!seen[low] || e.weight > pair_weight[low]) pair_weight[low] = e.weight;
    seen[low] = 1;
  }
  int64_t total = 0;
  for (int v = 0; v < n; ++v) {
    if (seen[v]) total += pair_weight[v];
  }
  return total;
}

}  // namespace freqywm
