#include "rf_lint/callgraph.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace rflint {

namespace {

// Where the lock-discipline families look for *roots*. Callees are followed
// into any file; only the function holding the lock must live on the
// concurrency surface.
bool InConcurrencyScope(const std::string& file) {
  return file.find("serve/") != std::string::npos ||
         file.find("thread_pool") != std::string::npos ||
         file.find("common/metrics") != std::string::npos ||
         file.find("common/trace") != std::string::npos ||
         file.find("deadlock/") != std::string::npos;
}

// Where parallel-body lambdas become alloc-rule roots.
bool InAllocScope(const std::string& file) {
  return file.find("tensor/") != std::string::npos ||
         file.find("deadlock/") != std::string::npos;
}

std::string Loc(const FunctionInfo& f, int line) {
  return f.file + ":" + std::to_string(line);
}

class Graph {
 public:
  explicit Graph(const std::vector<FunctionInfo>& fns) : fns_(fns) {
    for (int i = 0; i < static_cast<int>(fns_.size()); ++i) {
      if (!fns_[i].is_lambda) by_name_[fns_[i].simple_name].push_back(i);
    }
    blocks_.resize(fns_.size());
    allocs_.resize(fns_.size());
    acquired_.resize(fns_.size());
  }

  std::vector<GraphFinding> Run() {
    std::vector<GraphFinding> out;
    RunBlockingRule(&out);
    RunLockOrderRule(&out);
    RunAllocRule(&out);
    return out;
  }

 private:
  struct Reach {
    int state = 0;  // 0 = unvisited, 1 = in progress, 2 = done
    bool yes = false;
    std::string chain;  // witness, starting at the offending function
  };

  struct Acquired {
    int state = 0;
    std::map<std::string, std::string> mutexes;  // identity -> witness
  };

  std::vector<int> Resolve(int caller, const CallSite& c) const {
    auto it = by_name_.find(c.name);
    if (it == by_name_.end()) return {};
    std::vector<int> cand;
    for (int i : it->second) {
      if (i != caller) cand.push_back(i);
    }
    if (cand.empty()) return {};
    if (!c.qualifier.empty()) {
      std::vector<int> exact;
      for (int i : cand) {
        if (fns_[i].owner_class == c.qualifier) exact.push_back(i);
      }
      if (!exact.empty()) return exact;
    } else {
      const std::string& cls = fns_[caller].owner_class;
      if (!cls.empty()) {
        std::vector<int> same_class;
        for (int i : cand) {
          if (fns_[i].owner_class == cls) same_class.push_back(i);
        }
        if (!same_class.empty()) return same_class;
      }
      std::vector<int> same_file;
      for (int i : cand) {
        if (fns_[i].file == fns_[caller].file) same_file.push_back(i);
      }
      if (!same_file.empty()) return same_file;
    }
    // A very popular simple name is more likely an unrelated homonym than a
    // real target; refuse to guess.
    if (cand.size() > 6) return {};
    return cand;
  }

  // Does `f` (transitively) reach a blocking syscall?
  const Reach& Blocks(int f) {
    Reach& r = blocks_[f];
    if (r.state == 2) return r;
    if (r.state == 1) return r;  // recursion: cut the cycle, assume no
    r.state = 1;
    if (!fns_[f].attr_nonblocking) {
      for (const BlockingSite& b : fns_[f].blocking) {
        r.yes = true;
        r.chain = fns_[f].qualified_name + " calls " + b.what + " (" +
                  Loc(fns_[f], b.line) + ")";
        break;
      }
      if (!r.yes) {
        for (const CallSite& c : fns_[f].calls) {
          if (c.static_init) continue;  // one-time init, not steady state
          for (int g : Resolve(f, c)) {
            const Reach& sub = Blocks(g);
            if (sub.yes) {
              r.yes = true;
              r.chain = fns_[f].qualified_name + " (" + Loc(fns_[f], c.line) +
                        ") -> " + sub.chain;
              break;
            }
          }
          if (r.yes) break;
        }
      }
    }
    r.state = 2;
    return r;
  }

  // Does `f` (transitively) allocate?
  const Reach& Allocates(int f) {
    Reach& r = allocs_[f];
    if (r.state == 2) return r;
    if (r.state == 1) return r;
    r.state = 1;
    for (const AllocSite& a : fns_[f].allocs) {
      r.yes = true;
      r.chain = fns_[f].qualified_name + " allocates via " + a.what + " (" +
                Loc(fns_[f], a.line) + ")";
      break;
    }
    if (!r.yes) {
      for (const CallSite& c : fns_[f].calls) {
        if (c.static_init) continue;  // one-time init, not steady state
        for (int g : Resolve(f, c)) {
          const Reach& sub = Allocates(g);
          if (sub.yes) {
            r.yes = true;
            r.chain = fns_[f].qualified_name + " (" + Loc(fns_[f], c.line) +
                      ") -> " + sub.chain;
            break;
          }
        }
        if (r.yes) break;
      }
    }
    r.state = 2;
    return r;
  }

  // Which mutexes might `f` (transitively) acquire, with witness paths?
  const Acquired& AcquiredLocks(int f) {
    Acquired& a = acquired_[f];
    if (a.state == 2) return a;
    if (a.state == 1) return a;
    a.state = 1;
    for (const LockSite& s : fns_[f].locks) {
      if (a.mutexes.count(s.mutex)) continue;
      a.mutexes[s.mutex] = fns_[f].qualified_name + " acquires " + s.mutex +
                           " (" + Loc(fns_[f], s.line) + ")";
    }
    for (const CallSite& c : fns_[f].calls) {
      if (a.mutexes.size() >= 16) break;
      for (int g : Resolve(f, c)) {
        for (const auto& [m, w] : AcquiredLocks(g).mutexes) {
          if (a.mutexes.count(m)) continue;
          a.mutexes[m] = fns_[f].qualified_name + " (" + Loc(fns_[f], c.line) +
                         ") -> " + w;
        }
      }
    }
    a.state = 2;
    return a;
  }

  std::string HeldNames(const FunctionInfo& f, const std::vector<int>& held) {
    std::string out;
    for (int idx : held) {
      if (idx < 0 || idx >= static_cast<int>(f.locks.size())) continue;
      if (!out.empty()) out += ", ";
      out += f.locks[idx].mutex;
    }
    return out;
  }

  void RunBlockingRule(std::vector<GraphFinding>* out) {
    for (int f = 0; f < static_cast<int>(fns_.size()); ++f) {
      const FunctionInfo& fn = fns_[f];
      if (!InConcurrencyScope(fn.file) || fn.attr_nonblocking) continue;
      for (const BlockingSite& b : fn.blocking) {
        if (b.locks_held.empty()) continue;
        out->push_back({"blocking-reachable-under-lock", fn.file, b.line,
                        "blocking call " + b.what + " while holding {" +
                            HeldNames(fn, b.locks_held) + "} in " +
                            fn.qualified_name});
      }
      for (const CallSite& c : fn.calls) {
        if (c.locks_held.empty() || c.static_init) continue;
        for (int g : Resolve(f, c)) {
          const Reach& sub = Blocks(g);
          if (!sub.yes) continue;
          out->push_back(
              {"blocking-reachable-under-lock", fn.file, c.line,
               "call chain reaches a blocking syscall while holding {" +
                   HeldNames(fn, c.locks_held) + "}: " + fn.qualified_name +
                   " (" + Loc(fn, c.line) + ") -> " + sub.chain});
          break;  // one finding per call site
        }
      }
    }
  }

  void RunLockOrderRule(std::vector<GraphFinding>* out) {
    struct Edge {
      std::string witness;
      std::string file;
      int line = 0;
    };
    std::map<std::pair<std::string, std::string>, Edge> edges;
    auto add_edge = [&edges](const std::string& a, const std::string& b,
                             std::string witness, const std::string& file,
                             int line) {
      if (a == b) return;  // recursive acquisition is a different problem
      edges.emplace(std::make_pair(a, b),
                    Edge{std::move(witness), file, line});
    };
    for (int f = 0; f < static_cast<int>(fns_.size()); ++f) {
      const FunctionInfo& fn = fns_[f];
      if (!InConcurrencyScope(fn.file)) continue;
      for (const LockSite& s : fn.locks) {
        for (int h : s.held_at_acquire) {
          if (h < 0 || h >= static_cast<int>(fn.locks.size())) continue;
          add_edge(fn.locks[h].mutex, s.mutex,
                   fn.qualified_name + " acquires " + fn.locks[h].mutex +
                       " (" + Loc(fn, fn.locks[h].line) + ") then " + s.mutex +
                       " (" + Loc(fn, s.line) + ")",
                   fn.file, s.line);
        }
      }
      for (const CallSite& c : fn.calls) {
        if (c.locks_held.empty()) continue;
        for (int g : Resolve(f, c)) {
          for (const auto& [m, w] : AcquiredLocks(g).mutexes) {
            for (int h : c.locks_held) {
              if (h < 0 || h >= static_cast<int>(fn.locks.size())) continue;
              add_edge(fn.locks[h].mutex, m,
                       fn.qualified_name + " holds " + fn.locks[h].mutex +
                           " (" + Loc(fn, fn.locks[h].line) + "), then " + w,
                       fn.file, c.line);
            }
          }
        }
      }
    }
    // SCCs over the mutex-order graph (iterative Tarjan).
    std::vector<std::string> nodes;
    std::map<std::string, int> node_id;
    auto id_of = [&](const std::string& n) {
      auto it = node_id.find(n);
      if (it != node_id.end()) return it->second;
      const int id = static_cast<int>(nodes.size());
      node_id[n] = id;
      nodes.push_back(n);
      return id;
    };
    std::vector<std::vector<int>> adj;
    for (const auto& [key, edge] : edges) {
      const int a = id_of(key.first);
      const int b = id_of(key.second);
      if (static_cast<int>(adj.size()) < static_cast<int>(nodes.size())) {
        adj.resize(nodes.size());
      }
      adj[a].push_back(b);
    }
    adj.resize(nodes.size());
    const int n = static_cast<int>(nodes.size());
    std::vector<int> index(n, -1), low(n, 0), comp(n, -1);
    std::vector<bool> on_stack(n, false);
    std::vector<int> stack;
    int next_index = 0, next_comp = 0;
    // Iterative Tarjan: frames of (node, child cursor).
    for (int root = 0; root < n; ++root) {
      if (index[root] != -1) continue;
      std::vector<std::pair<int, size_t>> work{{root, 0}};
      while (!work.empty()) {
        auto& [v, cursor] = work.back();
        if (cursor == 0) {
          index[v] = low[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
        }
        bool descended = false;
        while (cursor < adj[v].size()) {
          const int w = adj[v][cursor++];
          if (index[w] == -1) {
            work.push_back({w, 0});
            descended = true;
            break;
          }
          if (on_stack[w]) low[v] = std::min(low[v], index[w]);
        }
        if (descended) continue;
        if (low[v] == index[v]) {
          while (true) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp[w] = next_comp;
            if (w == v) break;
          }
          ++next_comp;
        }
        const int finished = v;
        work.pop_back();
        if (!work.empty()) {
          low[work.back().first] =
              std::min(low[work.back().first], low[finished]);
        }
      }
    }
    // One finding per SCC with >= 2 mutexes.
    std::map<int, std::vector<int>> members;
    for (int v = 0; v < n; ++v) members[comp[v]].push_back(v);
    for (const auto& [cid, vs] : members) {
      if (vs.size() < 2) continue;
      std::set<int> in_scc(vs.begin(), vs.end());
      std::string names;
      for (int v : vs) {
        if (!names.empty()) names += ", ";
        names += nodes[v];
      }
      std::string witnesses;
      const Edge* anchor = nullptr;
      int shown = 0;
      for (const auto& [key, edge] : edges) {
        const int a = node_id[key.first];
        const int b = node_id[key.second];
        if (!in_scc.count(a) || !in_scc.count(b)) continue;
        if (!anchor) anchor = &edge;
        if (shown < 4) {
          witnesses += (shown ? " | " : "") + edge.witness;
          ++shown;
        }
      }
      out->push_back({"lock-order-cycle", anchor ? anchor->file : "",
                      anchor ? anchor->line : 0,
                      "lock-order cycle among {" + names +
                          "} (potential deadlock): " + witnesses});
    }
  }

  void RunAllocRule(std::vector<GraphFinding>* out) {
    for (int f = 0; f < static_cast<int>(fns_.size()); ++f) {
      const FunctionInfo& fn = fns_[f];
      if (!fn.is_parallel_body || !InAllocScope(fn.file)) continue;
      for (const AllocSite& a : fn.allocs) {
        out->push_back({"alloc-in-parallel-for", fn.file, a.line,
                        std::string("heap allocation (") + a.what +
                            ") in parallel-for body " + fn.qualified_name});
      }
      for (const CallSite& c : fn.calls) {
        if (c.static_init) continue;
        for (int g : Resolve(f, c)) {
          const Reach& sub = Allocates(g);
          if (!sub.yes) continue;
          out->push_back({"alloc-in-parallel-for", fn.file, c.line,
                          "allocation reachable from parallel-for body " +
                              fn.qualified_name + " (" +
                              Loc(fn, c.line) + ") -> " + sub.chain});
          break;
        }
      }
    }
  }

  const std::vector<FunctionInfo>& fns_;
  std::map<std::string, std::vector<int>> by_name_;
  std::vector<Reach> blocks_;
  std::vector<Reach> allocs_;
  std::vector<Acquired> acquired_;
};

}  // namespace

std::vector<GraphFinding> RunGraphRules(
    const std::vector<FunctionInfo>& functions) {
  return Graph(functions).Run();
}

}  // namespace rflint
