#include "sim/deadlock.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

namespace paraio::sim {

DeadlockDetector::DeadlockDetector(Engine& engine) : engine_(engine) {
  if (engine_.deadlock_detector_ != nullptr) {
    throw std::logic_error(
        "sim::DeadlockDetector: the engine already has a deadlock detector");
  }
  engine_.deadlock_detector_ = this;
  engine_.attach(*this);
}

DeadlockDetector::~DeadlockDetector() {
  engine_.detach(*this);
  engine_.deadlock_detector_ = nullptr;
}

void DeadlockDetector::on_run_complete(SimTime now, std::size_t pending_events,
                                       std::size_t live_tasks) {
  (void)now;
  (void)pending_events;
  (void)live_tasks;
  if (!waits_.empty()) finish();
}

DeadlockDetector::TaskId DeadlockDetector::register_task(std::string name) {
  const TaskId id = static_cast<TaskId>(task_names_.size());
  task_names_.push_back(std::move(name));
  held_.emplace_back();
  return id;
}

DeadlockDetector::TaskId DeadlockDetector::task_for_key(std::uint64_t key,
                                                        const char* label) {
  auto it = external_tasks_.find(key);
  if (it != external_tasks_.end()) return it->second;
  const TaskId id =
      register_task(std::string(label) + "#" + std::to_string(key));
  external_tasks_.emplace(key, id);
  return id;
}

void DeadlockDetector::set_daemon(TaskId task) { daemons_.insert(task); }

DeadlockDetector::ResId DeadlockDetector::resource(const void* token,
                                                   std::string_view label) {
  auto it = resource_ids_.find(token);
  if (it != resource_ids_.end()) {
    if (resources_[it->second].label.empty() && !label.empty()) {
      resources_[it->second].label = std::string(label);
    }
    return it->second;
  }
  const ResId id = static_cast<ResId>(resources_.size());
  Resource r;
  r.token = token;
  r.label = std::string(label);
  resources_.push_back(std::move(r));
  resource_ids_.emplace(token, id);
  return id;
}

void DeadlockDetector::add_wait(TaskId task, ResId res, WaitKind kind) {
  waits_.push_back(Wait{task, res, kind});
}

void DeadlockDetector::drop_wait(TaskId task, ResId res, WaitKind kind) {
  auto it = std::find_if(waits_.begin(), waits_.end(), [&](const Wait& w) {
    return w.task == task && w.res == res && w.kind == kind;
  });
  if (it != waits_.end()) waits_.erase(it);
}

void DeadlockDetector::lock_wait(TaskId task, const void* lock,
                                 std::string_view label) {
  add_wait(task, resource(lock, label), WaitKind::kLock);
}

void DeadlockDetector::lock_acquired(TaskId task, const void* lock,
                                     std::string_view label) {
  const ResId id = resource(lock, label);
  drop_wait(task, id, WaitKind::kLock);
  // Lockdep edge: everything currently held by this task now orders before
  // the new acquisition.
  for (ResId h : held_[task]) {
    if (h != id) record_order_edge(task, h, id);
  }
  resources_[id].holders.push_back(task);
  held_[task].push_back(id);
}

void DeadlockDetector::lock_released(TaskId task, const void* lock) {
  auto it = resource_ids_.find(lock);
  if (it == resource_ids_.end()) return;
  const ResId id = it->second;
  auto& holders = resources_[id].holders;
  auto h = std::find(holders.begin(), holders.end(), task);
  if (h != holders.end()) holders.erase(h);
  auto& held = held_[task];
  auto p = std::find(held.rbegin(), held.rend(), id);
  if (p != held.rend()) held.erase(std::next(p).base());
}

void DeadlockDetector::cond_wait(TaskId task, const void* cond,
                                 std::string_view label) {
  add_wait(task, resource(cond, label), WaitKind::kCond);
}

void DeadlockDetector::cond_woken(TaskId task, const void* cond) {
  auto it = resource_ids_.find(cond);
  if (it != resource_ids_.end()) drop_wait(task, it->second, WaitKind::kCond);
}

void DeadlockDetector::cond_provider(TaskId task, const void* cond,
                                     std::string_view label) {
  resources_[resource(cond, label)].providers.insert(task);
}

void DeadlockDetector::channel_sender(TaskId task, const void* channel,
                                      std::string_view label) {
  resources_[resource(channel, label)].senders.insert(task);
}

void DeadlockDetector::channel_receiver(TaskId task, const void* channel,
                                        std::string_view label) {
  resources_[resource(channel, label)].receivers.insert(task);
}

void DeadlockDetector::send_wait(TaskId task, const void* channel,
                                 std::string_view label) {
  const ResId id = resource(channel, label);
  resources_[id].senders.insert(task);
  add_wait(task, id, WaitKind::kSend);
}

void DeadlockDetector::send_done(TaskId task, const void* channel) {
  auto it = resource_ids_.find(channel);
  if (it != resource_ids_.end()) drop_wait(task, it->second, WaitKind::kSend);
}

void DeadlockDetector::recv_wait(TaskId task, const void* channel,
                                 std::string_view label) {
  const ResId id = resource(channel, label);
  resources_[id].receivers.insert(task);
  add_wait(task, id, WaitKind::kRecv);
}

void DeadlockDetector::recv_done(TaskId task, const void* channel) {
  auto it = resource_ids_.find(channel);
  if (it != resource_ids_.end()) drop_wait(task, it->second, WaitKind::kRecv);
}

void DeadlockDetector::join_wait(TaskId waiter, TaskId target) {
  // Joins are waits on a per-task pseudo-resource whose only provider is the
  // target task.  The token is derived from the target id, not a heap
  // address, so it stays stable across runs.
  const void* token =
      reinterpret_cast<const void*>(static_cast<std::uintptr_t>(target) |
                                    (std::uintptr_t{1} << 63));
  const ResId id = resource(token, "join:" + task_names_[target]);
  resources_[id].providers.insert(target);
  add_wait(waiter, id, WaitKind::kJoin);
}

void DeadlockDetector::join_done(TaskId waiter, TaskId target) {
  const void* token =
      reinterpret_cast<const void*>(static_cast<std::uintptr_t>(target) |
                                    (std::uintptr_t{1} << 63));
  auto it = resource_ids_.find(token);
  if (it != resource_ids_.end()) drop_wait(waiter, it->second, WaitKind::kJoin);
}

void DeadlockDetector::task_done(TaskId task) {
  // A finished task satisfies pending joins on it and is no longer a live
  // provider for anything else.
  waits_.erase(std::remove_if(waits_.begin(), waits_.end(),
                              [&](const Wait& w) { return w.task == task; }),
               waits_.end());
  for (Resource& r : resources_) {
    r.senders.erase(task);
    r.receivers.erase(task);
    auto h = std::find(r.holders.begin(), r.holders.end(), task);
    if (h != r.holders.end()) r.holders.erase(h);
  }
  held_[task].clear();
  daemons_.insert(task);  // whatever it was waiting on no longer strands it
}

std::vector<DeadlockDetector::TaskId> DeadlockDetector::providers_of(
    const Wait& wait) const {
  const Resource& r = resources_[wait.res];
  std::vector<TaskId> out;
  auto add_all = [&](const std::set<TaskId>& s) {
    for (TaskId t : s) {
      if (t != wait.task) out.push_back(t);
    }
  };
  switch (wait.kind) {
    case WaitKind::kLock:
      for (TaskId t : r.holders) {
        if (t != wait.task) out.push_back(t);
      }
      break;
    case WaitKind::kCond:
    case WaitKind::kJoin:
      add_all(r.providers);
      break;
    case WaitKind::kSend:
      // Progress requires someone to drain the channel.
      add_all(r.receivers);
      break;
    case WaitKind::kRecv:
      add_all(r.senders);
      break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void DeadlockDetector::record_order_edge(TaskId task, ResId from, ResId to) {
  const auto key = std::make_pair(from, to);
  if (!order_edges_.emplace(key, task).second) return;
  // New edge from -> to: a pre-existing path to -> ... -> from is an
  // inversion.  BFS over the order graph.
  std::vector<ResId> frontier{to};
  std::set<ResId> seen{to};
  while (!frontier.empty()) {
    const ResId cur = frontier.back();
    frontier.pop_back();
    if (cur == from) {
      if (reported_inversions_.emplace(std::minmax(from, to)).second) {
        inversions_.push_back(OrderInversion{resources_[from].label,
                                             resources_[to].label,
                                             task_names_[task]});
      }
      return;
    }
    for (const auto& [edge, who] : order_edges_) {
      (void)who;
      if (edge.first == cur && seen.insert(edge.second).second) {
        frontier.push_back(edge.second);
      }
    }
  }
}

std::vector<std::string> DeadlockDetector::held_labels(TaskId task) const {
  std::vector<std::string> out;
  out.reserve(held_[task].size());
  for (ResId id : held_[task]) out.push_back(resources_[id].label);
  return out;
}

void DeadlockDetector::finish() {
  cycles_.clear();
  stranded_.clear();

  // Build the waits-for graph over blocked tasks: one edge per (wait,
  // provider) pair.  A task can have several outstanding annotated waits
  // only through bugs in annotation ordering; the analysis tolerates it.
  struct Edge {
    const Wait* wait;
    TaskId provider;
  };
  std::map<TaskId, std::vector<Edge>> graph;
  std::set<TaskId> blocked;
  for (const Wait& w : waits_) {
    blocked.insert(w.task);
    for (TaskId p : providers_of(w)) {
      graph[w.task].push_back(Edge{&w, p});
    }
  }

  // Cycle enumeration: DFS from each blocked task over edges whose provider
  // is itself blocked (an unblocked provider can still run, so no deadlock
  // through it).  Each cycle is canonicalized by its smallest task id so the
  // same loop is reported once.
  std::set<std::vector<TaskId>> seen_cycles;
  std::vector<TaskId> stack;
  std::vector<const Wait*> stack_waits;
  std::set<TaskId> on_stack;
  std::set<TaskId> in_any_cycle;

  auto emit_cycle = [&](std::size_t start) {
    std::vector<TaskId> tasks(stack.begin() + static_cast<std::ptrdiff_t>(start),
                              stack.end());
    // Canonical form: rotate so the smallest id leads.
    std::vector<TaskId> canon = tasks;
    const auto mn = std::min_element(canon.begin(), canon.end());
    std::rotate(canon.begin(), mn, canon.end());
    if (!seen_cycles.insert(canon).second) return;
    Cycle cycle;
    for (std::size_t i = start; i < stack.size(); ++i) {
      const std::size_t next = i + 1 < stack.size() ? i + 1 : start;
      CycleEdge e;
      e.waiter = stack[i];
      e.provider = stack[next];
      e.resource = resources_[stack_waits[i]->res].label;
      e.kind = stack_waits[i]->kind;
      e.held = held_labels(stack[i]);
      cycle.edges.push_back(std::move(e));
      in_any_cycle.insert(stack[i]);
    }
    cycles_.push_back(std::move(cycle));
  };

  // Self-deadlock: a wait whose only satisfiers include the waiter itself —
  // providers_of excludes the waiter, so detect it directly: the resource
  // has the waiter registered on the satisfying side and nobody else
  // blocked-free to help.
  for (const Wait& w : waits_) {
    const Resource& r = resources_[w.res];
    const bool self_send = w.kind == WaitKind::kSend &&
                           r.receivers.count(w.task) > 0 &&
                           providers_of(w).empty();
    const bool self_recv = w.kind == WaitKind::kRecv &&
                           r.senders.count(w.task) > 0 &&
                           providers_of(w).empty();
    if (self_send || self_recv) {
      std::vector<TaskId> canon{w.task};
      if (!seen_cycles.insert(canon).second) continue;
      Cycle cycle;
      CycleEdge e;
      e.waiter = w.task;
      e.provider = w.task;
      e.resource = r.label;
      e.kind = w.kind;
      e.held = held_labels(w.task);
      cycle.edges.push_back(std::move(e));
      in_any_cycle.insert(w.task);
      cycles_.push_back(std::move(cycle));
    }
  }

  std::function<void(TaskId)> dfs = [&](TaskId task) {
    on_stack.insert(task);
    auto it = graph.find(task);
    if (it != graph.end()) {
      for (const Edge& e : it->second) {
        if (blocked.count(e.provider) == 0) continue;
        stack.push_back(task);
        stack_waits.push_back(e.wait);
        if (on_stack.count(e.provider)) {
          // Found a loop: it starts where provider sits on the stack.
          const auto pos = std::find(stack.begin(), stack.end(), e.provider);
          emit_cycle(static_cast<std::size_t>(pos - stack.begin()));
        } else {
          dfs(e.provider);
        }
        stack.pop_back();
        stack_waits.pop_back();
      }
    }
    on_stack.erase(task);
  };
  for (TaskId t : blocked) dfs(t);

  // Anything still blocked, not explained by a cycle, and not a daemon is
  // stranded: it waits on a resource nobody left alive can provide.
  for (const Wait& w : waits_) {
    if (in_any_cycle.count(w.task) || daemons_.count(w.task)) continue;
    // A blocked task whose providers include a *runnable* task is not
    // stranded — the provider just hasn't run yet (finish() called early).
    const auto provs = providers_of(w);
    const bool has_runnable =
        std::any_of(provs.begin(), provs.end(), [&](TaskId p) {
          return blocked.count(p) == 0 && daemons_.count(p) == 0;
        });
    if (has_runnable && engine_.pending_events() > 0) continue;
    stranded_.push_back(Stranded{w.task, resources_[w.res].label, w.kind});
  }
}

namespace {
const char* kind_name(DeadlockDetector::WaitKind k) {
  switch (k) {
    case DeadlockDetector::WaitKind::kLock: return "lock";
    case DeadlockDetector::WaitKind::kCond: return "cond-wait";
    case DeadlockDetector::WaitKind::kSend: return "channel-send";
    case DeadlockDetector::WaitKind::kRecv: return "channel-recv";
    case DeadlockDetector::WaitKind::kJoin: return "join";
  }
  return "?";
}
}  // namespace

std::string DeadlockDetector::report() const {
  if (ok()) return "ok";
  std::ostringstream out;
  if (!cycles_.empty()) {
    out << cycles_.size() << " deadlock cycle(s):";
    for (std::size_t c = 0; c < cycles_.size(); ++c) {
      out << "\n  cycle " << c + 1 << ":";
      for (const CycleEdge& e : cycles_[c].edges) {
        out << "\n    '" << task_names_[e.waiter] << "' waits ("
            << kind_name(e.kind) << ") on '" << e.resource << "' held/served"
            << " by '" << task_names_[e.provider] << "'";
        if (!e.held.empty()) {
          out << " while holding [";
          for (std::size_t i = 0; i < e.held.size(); ++i) {
            if (i) out << ", ";
            out << "'" << e.held[i] << "'";
          }
          out << "]";
        }
      }
    }
  }
  if (!stranded_.empty()) {
    if (out.tellp() > 0) out << "\n";
    out << stranded_.size() << " stranded waiter(s):";
    for (const Stranded& s : stranded_) {
      out << "\n  - '" << task_names_[s.task] << "' blocked ("
          << kind_name(s.kind) << ") on '" << s.resource
          << "' with no live provider";
    }
  }
  if (!inversions_.empty()) {
    if (out.tellp() > 0) out << "\n";
    out << inversions_.size() << " lock-order inversion(s):";
    for (const OrderInversion& v : inversions_) {
      out << "\n  - '" << v.first << "' -> '" << v.second
          << "' acquired in both orders (closed by '" << v.site
          << "'); pick one global order";
    }
  }
  return out.str();
}

}  // namespace paraio::sim
