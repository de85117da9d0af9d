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
/// edges the previous stage touched, labels the free vertices from a list,
/// and walks blossom leaves in place, so a stage costs what its search
/// does. Scan, queue and tie-break order are those of the reference
/// formulation (DESIGN.md §16).
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
    label_.assign(2 * n_, 0);
    label_end_.assign(2 * n_, -1);
    in_blossom_.resize(n_);
    for (int v = 0; v < n_; ++v) in_blossom_[v] = v;
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
    free_.resize(n_);
    for (int v = 0; v < n_; ++v) free_[v] = v;
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
      queue_.clear();

      // Every free vertex roots an S-tree. Most are not in a blossom, so
      // those are labelled here, as AssignLabel would label them.
      for (int v : free_) {
        const int b = in_blossom_[v];
        if (label_[b] != 0) continue;
        if (b != v) {
          AssignLabel(v, 1, -1);
          continue;
        }
        SetLabel(v, 1);
        label_end_[v] = best_edge_[v] = -1;
        queue_.push_back(v);
      }

      bool augmented = false;
      while (true) {
        while (!queue_.empty() && !augmented) {
          int v = queue_.back();
          queue_.pop_back();
          assert(label_[in_blossom_[v]] == 1);

          for (int i = neighb_begin_[v]; i < neighb_begin_[v + 1]; ++i) {
            int p = neighb_end_[i];
            int k = p / 2;
            int w = endpoint_[p];
            if (in_blossom_[v] == in_blossom_[w]) continue;
            int64_t kslack = 0;
            if (!allow_edge_[k]) {
              kslack = Slack(k);
              if (kslack <= 0) Allow(k);
            }
            if (allow_edge_[k]) {
              if (label_[in_blossom_[w]] == 0) {
                AssignLabel(w, 2, p ^ 1);
              } else if (label_[in_blossom_[w]] == 1) {
                int base = ScanBlossom(v, w);
                if (base >= 0) {
                  AddBlossom(base, k);
                } else {
                  AugmentMatching(k);
                  augmented = true;
                  break;
                }
              } else if (label_[w] == 0) {
                assert(label_[in_blossom_[w]] == 2);
                SetLabel(w, 2);
                label_end_[w] = p ^ 1;
              }
            } else if (label_[in_blossom_[w]] == 1) {
              int b = in_blossom_[v];
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
          if (label_[in_blossom_[v]] == 0 && best_edge_[v] != -1) {
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
          int lbl = label_[in_blossom_[v]];
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
          if (label_[in_blossom_[i]] == 0) i = edges_[delta_edge].v;
          assert(label_[in_blossom_[i]] == 1);
          queue_.push_back(i);
        } else if (delta_type == 3) {
          Allow(delta_edge);
          int i = edges_[delta_edge].u;
          assert(label_[in_blossom_[i]] == 1);
          queue_.push_back(i);
        } else {
          ExpandBlossom(delta_blossom, /*endstage=*/false);
        }
      }

      if (!augmented) break;

      // End of stage: expand S-blossoms whose dual hit zero, in ascending
      // slot order. Only a slot labelled this stage can be an S-blossom.
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
      free_.erase(std::remove_if(free_.begin(), free_.end(),
                                 [&](int v) { return mate_[v] != -1; }),
                  free_.end());
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

  void AssignLabel(int w, int t, int p) {
    int b = in_blossom_[w];
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
      int b = in_blossom_[v];
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
        b = in_blossom_[v];
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
    int bb = in_blossom_[base];
    int bv = in_blossom_[v];
    int bw = in_blossom_[w];

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
      bv = in_blossom_[v];
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
      bw = in_blossom_[w];
    }

    assert(label_[bb] == 1);
    SetLabel(b, 1);
    label_end_[b] = label_end_[bb];
    dual_var_[b] = 0;

    ForEachLeaf(b, [&](int leaf) {
      if (label_[in_blossom_[leaf]] == 2) queue_.push_back(leaf);
      in_blossom_[leaf] = b;
    });

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
    if (in_blossom_[j] == b) j = edges_[ke].u;
    const int bj = in_blossom_[j];
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
    for (int s : blossom_childs_[b]) {
      blossom_parent_[s] = -1;
      if (s < n_) {
        in_blossom_[s] = s;
      } else if (endstage && dual_var_[s] == 0) {
        ExpandBlossom(s, endstage);
      } else {
        ForEachLeaf(s, [&](int leaf) { in_blossom_[leaf] = s; });
      }
    }

    if (!endstage && label_[b] == 2) {
      assert(label_end_[b] >= 0);
      int entry_child = in_blossom_[endpoint_[label_end_[b] ^ 1]];
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
          assert(in_blossom_[reached] == bv);
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
        int bs = in_blossom_[s];
        assert(label_[bs] == 1);
        assert(label_end_[bs] == mate_[blossom_base_[bs]]);
        if (bs >= n_) AugmentBlossom(bs, s);
        mate_[s] = p;
        if (label_end_[bs] == -1) break;
        int t = endpoint_[label_end_[bs]];
        int bt = in_blossom_[t];
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

#ifndef NDEBUG
  /// Checks LP dual feasibility and complementary slackness — the standard
  /// certificate that the produced matching is optimal.
  void VerifyOptimum() const {
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
  std::vector<int> in_blossom_;
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
  // Free vertices in ascending order; the stage's S-vertices to start from.
  std::vector<int> free_;
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
