#pragma once
// SPMD executors of the collective operations on the HBSPlib-like runtime.
//
// Each executor is the runnable counterpart of a planner in planners.hpp: it
// moves real data with exactly the transfers (endpoints, item counts,
// superstep structure) the planner schedules, so the virtual-time makespan of
// an executor run equals the cluster simulator's makespan for the planned
// schedule. Tests rely on that agreement.
//
// All executors are collectives in the MPI sense: every processor of the
// machine must call the same executor with consistent arguments, and the
// data a processor contributes must match its planned share
// (`leaf_shares(machine, n, shares)`; for kBalanced that is what the
// runtime's `balanced_shares(n)` enquiry returns).

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "collectives/planners.hpp"
#include "core/workload.hpp"
#include "runtime/hbsplib.hpp"

namespace hbsp::coll {

namespace detail {

/// Packs (origin_pid, count, values...) segments into one message payload.
template <typename T>
rt::PackBuffer pack_segments(const std::map<int, std::vector<T>>& segments) {
  rt::PackBuffer buffer;
  for (const auto& [origin, values] : segments) {
    buffer.pack<std::int32_t>(origin);
    buffer.pack<std::uint64_t>(values.size());
    buffer.pack_span<T>(values);
  }
  return buffer;
}

/// Unpacks segments appended by pack_segments into `segments`.
template <typename T>
void unpack_segments(const rt::Message& message,
                     std::map<int, std::vector<T>>& segments) {
  rt::UnpackBuffer reader{message};
  while (reader.remaining() > 0) {
    const auto origin = reader.unpack<std::int32_t>();
    const auto count = reader.unpack<std::uint64_t>();
    auto values = reader.unpack_span<T>(count);
    auto [it, inserted] = segments.emplace(origin, std::move(values));
    if (!inserted) {
      throw std::logic_error{"duplicate segment for origin pid " +
                             std::to_string(origin)};
    }
  }
}

template <typename T>
std::size_t segment_items(const std::map<int, std::vector<T>>& segments) {
  std::size_t total = 0;
  for (const auto& [origin, values] : segments) total += values.size();
  return total;
}

/// The cluster of `pid`'s ancestors at `level`, or nullopt when the
/// processor itself sits at or above that level (degenerate machines take no
/// part in lower-level supersteps).
inline std::optional<MachineId> participating_cluster(const MachineTree& tree,
                                                      int pid, int level) {
  if (tree.processor(pid).level >= level) return std::nullopt;
  return tree.ancestor_at(pid, level);
}

/// The node whose data site `pid` would be within `cluster` at `level`: the
/// child of `cluster` on `pid`'s root path.
inline MachineId member_node(const MachineTree& tree, int pid, int level) {
  const MachineId me = tree.processor(pid);
  return me.level == level - 1 ? me : tree.ancestor_at(pid, level - 1);
}

}  // namespace detail

/// Gathers the distributed items (shares per `leaf_shares`) to the root
/// processor, bottom-up through the hierarchy (§4.2/4.3). Returns the items
/// in pid order at the root; nullopt elsewhere. `mine.size()` must equal the
/// caller's planned share.
template <typename T>
std::optional<std::vector<T>> gather(rt::Hbsp& ctx, std::span<const T> mine,
                                     std::size_t n,
                                     const RootedOptions& options = {}) {
  const MachineTree& tree = ctx.machine();
  const int root_pid = normalize_root(tree, options.root_pid);
  const auto shares = leaf_shares(tree, n, options.shares);
  if (mine.size() != shares[static_cast<std::size_t>(ctx.pid())]) {
    throw std::invalid_argument{"gather: local data does not match the plan"};
  }

  std::map<int, std::vector<T>> segments;
  if (!mine.empty()) {
    segments.emplace(ctx.pid(), std::vector<T>(mine.begin(), mine.end()));
  }

  for (int level = 1; level <= tree.height(); ++level) {
    const auto cluster = detail::participating_cluster(tree, ctx.pid(), level);
    if (!cluster) continue;
    const int target = cluster_target(tree, *cluster, root_pid);
    const MachineId member = detail::member_node(tree, ctx.pid(), level);
    const int site = data_site(tree, member, root_pid);
    if (ctx.pid() == site && ctx.pid() != target && !segments.empty()) {
      auto buffer = detail::pack_segments(segments);
      const std::size_t items = detail::segment_items(segments);
      ctx.send(target, buffer.take(), items);
      segments.clear();
    }
    ctx.sync_scope(*cluster);
    if (ctx.pid() == target) {
      for (const auto& message : ctx.recv_all()) {
        detail::unpack_segments<T>(message, segments);
      }
    }
  }

  if (ctx.pid() != root_pid) return std::nullopt;
  std::vector<T> result;
  result.reserve(n);
  for (const auto& [origin, values] : segments) {
    result.insert(result.end(), values.begin(), values.end());
  }
  if (result.size() != n) {
    throw std::logic_error{"gather: assembled " + std::to_string(result.size()) +
                           " of " + std::to_string(n) + " items"};
  }
  return result;
}

/// Scatters `input` (held by the root, in pid order) so every processor ends
/// with its `leaf_shares` share, top-down. Only the root's `input` is read.
template <typename T>
std::vector<T> scatter(rt::Hbsp& ctx, std::span<const T> input, std::size_t n,
                       const RootedOptions& options = {}) {
  const MachineTree& tree = ctx.machine();
  const int root_pid = normalize_root(tree, options.root_pid);
  const auto shares = leaf_shares(tree, n, options.shares);

  // Prefix offsets: items of pid `p` live at [offset[p], offset[p+1]).
  std::vector<std::size_t> offsets(shares.size() + 1, 0);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    offsets[i + 1] = offsets[i] + shares[i];
  }

  std::vector<T> buffer;
  int buffer_first = 0;  // pid range my buffer covers: [buffer_first, buffer_last)
  int buffer_last = 0;
  if (ctx.pid() == root_pid) {
    if (input.size() != n) {
      throw std::invalid_argument{"scatter: root input must hold all n items"};
    }
    buffer.assign(input.begin(), input.end());
    buffer_first = 0;
    buffer_last = tree.num_processors();
  }

  for (int level = tree.height(); level >= 1; --level) {
    const auto cluster = detail::participating_cluster(tree, ctx.pid(), level);
    if (!cluster) continue;
    const int source = cluster_target(tree, *cluster, root_pid);
    if (ctx.pid() == source) {
      for (int child = 0; child < tree.num_children(*cluster); ++child) {
        const MachineId cid = tree.child(*cluster, child);
        const auto [first, last] = tree.processor_range(cid);
        const int site = data_site(tree, cid, root_pid);
        const std::size_t count = offsets[static_cast<std::size_t>(last)] -
                                  offsets[static_cast<std::size_t>(first)];
        if (site == source || count == 0) continue;
        const std::size_t begin =
            offsets[static_cast<std::size_t>(first)] -
            offsets[static_cast<std::size_t>(buffer_first)];
        rt::PackBuffer out;
        out.pack_span<T>(std::span<const T>{buffer.data() + begin, count});
        ctx.send(site, out.take(), count);
      }
    }
    ctx.sync_scope(*cluster);
    const MachineId member = detail::member_node(tree, ctx.pid(), level);
    const int my_site = data_site(tree, member, root_pid);
    if (ctx.pid() == my_site && ctx.pid() != source) {
      auto messages = ctx.recv_all();
      if (!messages.empty()) {
        rt::UnpackBuffer reader{messages.front()};
        const auto [first, last] = tree.processor_range(member);
        buffer = reader.unpack_span<T>(offsets[static_cast<std::size_t>(last)] -
                                       offsets[static_cast<std::size_t>(first)]);
        buffer_first = first;
        buffer_last = last;
      }
    } else if (ctx.pid() == source) {
      // Trim my buffer to my own member subtree for the next level.
      const MachineId member_of_source = detail::member_node(tree, ctx.pid(), level);
      const auto [first, last] = tree.processor_range(member_of_source);
      const std::size_t begin = offsets[static_cast<std::size_t>(first)] -
                                offsets[static_cast<std::size_t>(buffer_first)];
      const std::size_t count = offsets[static_cast<std::size_t>(last)] -
                                offsets[static_cast<std::size_t>(first)];
      buffer = std::vector<T>(buffer.begin() + static_cast<std::ptrdiff_t>(begin),
                              buffer.begin() +
                                  static_cast<std::ptrdiff_t>(begin + count));
      buffer_first = first;
      buffer_last = last;
    }
  }
  (void)buffer_last;
  return buffer;
}

/// Broadcasts `input` (held by the root) to every processor (§4.4): one- or
/// two-phase at the top level, two-phase within every cluster below. Returns
/// the full n items on every processor.
template <typename T>
std::vector<T> broadcast(rt::Hbsp& ctx, std::span<const T> input, std::size_t n,
                         const BroadcastOptions& options = {}) {
  const MachineTree& tree = ctx.machine();
  const int root_pid = normalize_root(tree, options.root_pid);

  std::vector<T> full;
  if (ctx.pid() == root_pid) {
    if (input.size() != n) {
      throw std::invalid_argument{"broadcast: root input must hold all n items"};
    }
    full.assign(input.begin(), input.end());
  }

  for (int level = tree.height(); level >= 1; --level) {
    const auto cluster = detail::participating_cluster(tree, ctx.pid(), level);
    if (!cluster) continue;
    const int src = cluster_target(tree, *cluster, root_pid);
    const int m = tree.num_children(*cluster);
    const MachineId member = detail::member_node(tree, ctx.pid(), level);
    const int my_ordinal = analysis::member_of_pid(tree, *cluster, ctx.pid());
    const int my_site = data_site(tree, member, root_pid);
    std::vector<int> sites(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) {
      sites[static_cast<std::size_t>(j)] =
          data_site(tree, tree.child(*cluster, j), root_pid);
    }

    const bool top = level == tree.height();
    if (top && options.top_phase == TopPhase::kOnePhase) {
      if (ctx.pid() == src) {
        for (int j = 0; j < m; ++j) {
          const int site = sites[static_cast<std::size_t>(j)];
          if (site == src) continue;
          rt::PackBuffer out;
          out.pack_span<T>(std::span<const T>{full});
          ctx.send(site, out.take(), n);
        }
      }
      ctx.sync_scope(*cluster);
      if (ctx.pid() == my_site && ctx.pid() != src) {
        auto messages = ctx.recv_all();
        if (messages.size() != 1) {
          throw std::logic_error{"broadcast: expected exactly one message"};
        }
        rt::UnpackBuffer reader{messages.front()};
        full = reader.unpack_span<T>(n);
      }
      continue;
    }

    // Two-phase. Phase A: scatter member pieces of the full array.
    const auto split = analysis::broadcast_pieces(tree, *cluster, n, options.shares);
    std::vector<std::size_t> piece_offset(split.size() + 1, 0);
    for (std::size_t j = 0; j < split.size(); ++j) {
      piece_offset[j + 1] = piece_offset[j] + split[j];
    }
    if (ctx.pid() == src) {
      for (int j = 0; j < m; ++j) {
        const int site = sites[static_cast<std::size_t>(j)];
        const std::size_t count = split[static_cast<std::size_t>(j)];
        if (site == src || count == 0) continue;
        rt::PackBuffer out;
        out.pack_span<T>(std::span<const T>{
            full.data() + piece_offset[static_cast<std::size_t>(j)], count});
        ctx.send(site, out.take(), count);
      }
    }
    ctx.sync_scope(*cluster);
    std::vector<T> piece;
    if (ctx.pid() == my_site) {
      const std::size_t my_count = split[static_cast<std::size_t>(my_ordinal)];
      if (ctx.pid() == src) {
        piece.assign(
            full.begin() +
                static_cast<std::ptrdiff_t>(
                    piece_offset[static_cast<std::size_t>(my_ordinal)]),
            full.begin() +
                static_cast<std::ptrdiff_t>(
                    piece_offset[static_cast<std::size_t>(my_ordinal)] + my_count));
      } else {
        auto messages = ctx.recv_all();
        if (my_count > 0) {
          if (messages.size() != 1) {
            throw std::logic_error{"broadcast: expected one scatter message"};
          }
          rt::UnpackBuffer reader{messages.front()};
          piece = reader.unpack_span<T>(my_count);
        }
      }
    }

    // Phase B: total exchange of pieces among the member sites.
    if (ctx.pid() == my_site && !piece.empty()) {
      for (int i = 0; i < m; ++i) {
        const int site = sites[static_cast<std::size_t>(i)];
        if (i == my_ordinal || site == ctx.pid()) continue;
        rt::PackBuffer out;
        out.pack<std::int32_t>(my_ordinal);
        out.pack_span<T>(std::span<const T>{piece});
        ctx.send(site, out.take(), piece.size());
      }
    }
    ctx.sync_scope(*cluster);
    if (ctx.pid() == my_site) {
      std::vector<std::vector<T>> pieces(static_cast<std::size_t>(m));
      pieces[static_cast<std::size_t>(my_ordinal)] = std::move(piece);
      for (const auto& message : ctx.recv_all()) {
        rt::UnpackBuffer reader{message};
        const auto ordinal = reader.unpack<std::int32_t>();
        pieces[static_cast<std::size_t>(ordinal)] =
            reader.unpack_span<T>(split[static_cast<std::size_t>(ordinal)]);
      }
      full.clear();
      full.reserve(n);
      for (auto& p : pieces) full.insert(full.end(), p.begin(), p.end());
      if (full.size() != n) {
        throw std::logic_error{"broadcast: exchange assembled wrong size"};
      }
    }
  }
  return full;
}

/// HBSP^1 all-gather: every processor contributes its share and ends with
/// the full n items in pid order.
template <typename T>
std::vector<T> allgather(rt::Hbsp& ctx, std::span<const T> mine, std::size_t n,
                         Shares shares = Shares::kBalanced) {
  const MachineTree& tree = ctx.machine();
  detail::require_flat(tree, "allgather");
  const auto split = leaf_shares(tree, n, shares);
  if (mine.size() != split[static_cast<std::size_t>(ctx.pid())]) {
    throw std::invalid_argument{"allgather: local data does not match the plan"};
  }
  if (!mine.empty()) {
    for (int dst = 0; dst < ctx.nprocs(); ++dst) {
      if (dst == ctx.pid()) continue;
      rt::PackBuffer out;
      out.pack_span<T>(mine);
      ctx.send(dst, out.take(), mine.size());
    }
  }
  ctx.sync_scope(tree.root());
  std::vector<std::vector<T>> pieces(static_cast<std::size_t>(ctx.nprocs()));
  pieces[static_cast<std::size_t>(ctx.pid())] =
      std::vector<T>(mine.begin(), mine.end());
  for (const auto& message : ctx.recv_all()) {
    rt::UnpackBuffer reader{message};
    pieces[static_cast<std::size_t>(message.src_pid)] = reader.unpack_span<T>(
        split[static_cast<std::size_t>(message.src_pid)]);
  }
  std::vector<T> full;
  full.reserve(n);
  for (auto& p : pieces) full.insert(full.end(), p.begin(), p.end());
  if (full.size() != n) {
    throw std::logic_error{"allgather: assembled wrong size"};
  }
  return full;
}

/// HBSP^k all-gather: gather to the machine's coordinator, then broadcast
/// back out (the runnable counterpart of plan_allgather_tree). Every
/// processor returns the full n items in pid order.
template <typename T>
std::vector<T> allgather_tree(rt::Hbsp& ctx, std::span<const T> mine,
                              std::size_t n, Shares shares = Shares::kBalanced) {
  const MachineTree& tree = ctx.machine();
  if (tree.num_children(tree.root()) == 0) {
    throw std::invalid_argument{"allgather_tree: single-processor machine"};
  }
  const int root = tree.coordinator_pid(tree.root());
  const auto at_root =
      gather<T>(ctx, mine, n, {.root_pid = root, .shares = shares});
  return broadcast<T>(
      ctx,
      at_root ? std::span<const T>{*at_root} : std::span<const T>{}, n,
      {.root_pid = root, .top_phase = TopPhase::kTwoPhase,
       .shares = Shares::kEqual});
}

/// HBSP^k reduction with a binary operation: partials flow up the tree one
/// level per superstep, each cluster folding concurrently under its own
/// barrier (the runnable counterpart of plan_reduce_tree; on a flat machine,
/// the HBSP^1 reduce). Returns the result at the root processor, nullopt
/// elsewhere. `identity` seeds empty shares.
template <typename T, typename Op>
std::optional<T> reduce_tree(rt::Hbsp& ctx, std::span<const T> mine,
                             std::size_t n, Op op, T identity,
                             const RootedOptions& options = {}) {
  const MachineTree& tree = ctx.machine();
  if (tree.num_children(tree.root()) == 0) {
    throw std::invalid_argument{"reduce_tree: single-processor machine"};
  }
  const int root_pid = normalize_root(tree, options.root_pid);
  const auto shares = leaf_shares(tree, n, options.shares);
  if (mine.size() != shares[static_cast<std::size_t>(ctx.pid())]) {
    throw std::invalid_argument{"reduce_tree: local data does not match the plan"};
  }

  T partial = identity;
  for (const T& value : mine) partial = op(partial, value);
  // Ops owed to the virtual clock, charged in the next participating phase
  // (mirrors plan_reduce_tree's accounting exactly).
  double pending_ops = mine.empty() ? 0.0 : static_cast<double>(mine.size()) - 1.0;

  for (int level = 1; level <= tree.height(); ++level) {
    const auto cluster = detail::participating_cluster(tree, ctx.pid(), level);
    if (!cluster) continue;
    const int target = cluster_target(tree, *cluster, root_pid);
    const MachineId member = detail::member_node(tree, ctx.pid(), level);
    const int my_site = data_site(tree, member, root_pid);
    if (ctx.pid() == my_site) {
      if (pending_ops > 0.0) {
        ctx.charge_compute(pending_ops);
        pending_ops = 0.0;
      }
      if (ctx.pid() != target) {
        rt::PackBuffer out;
        out.pack<T>(partial);
        ctx.send(target, out.take(), 1);
      }
    }
    ctx.sync_scope(*cluster);
    if (ctx.pid() == target) {
      for (const auto& message : ctx.recv_all()) {
        rt::UnpackBuffer reader{message};
        partial = op(partial, reader.unpack<T>());
        pending_ops += 1.0;
      }
    }
  }

  // Final superstep: the root target folds what the last barrier delivered.
  if (ctx.pid() == root_pid && pending_ops > 0.0) {
    ctx.charge_compute(pending_ops);
  }
  ctx.sync_scope(tree.root());
  if (ctx.pid() != root_pid) return std::nullopt;
  return partial;
}

namespace detail {
/// The coordinator's own exclusive offset, remembered across the superstep
/// boundary without a self-send (§5.2: no self-sends). One slot per thread is
/// safe: each processor runs on its own thread and scans don't nest.
template <typename T>
inline thread_local T scan_offset_stash{};
}  // namespace detail

/// HBSP^1 inclusive scan over the global pid-ordered sequence: returns this
/// processor's items replaced by their global running totals.
template <typename T, typename Op>
std::vector<T> scan(rt::Hbsp& ctx, std::span<const T> mine, std::size_t n,
                    Op op, T identity, Shares shares = Shares::kBalanced) {
  const MachineTree& tree = ctx.machine();
  detail::require_flat(tree, "scan");
  const int root_pid = tree.coordinator_pid(tree.root());
  const auto split = leaf_shares(tree, n, shares);
  if (mine.size() != split[static_cast<std::size_t>(ctx.pid())]) {
    throw std::invalid_argument{"scan: local data does not match the plan"};
  }

  // Superstep 1: local inclusive prefix; totals to the coordinator.
  std::vector<T> local(mine.begin(), mine.end());
  T running = identity;
  for (T& value : local) {
    running = op(running, value);
    value = running;
  }
  if (!local.empty()) ctx.charge_compute(static_cast<double>(local.size()));
  if (ctx.pid() != root_pid) {
    rt::PackBuffer out;
    out.pack<T>(running);
    ctx.send(root_pid, out.take(), 1);
  }
  ctx.sync_scope(tree.root());

  // Superstep 2: the coordinator prefixes the totals and returns offsets.
  if (ctx.pid() == root_pid) {
    std::vector<T> totals(static_cast<std::size_t>(ctx.nprocs()), identity);
    totals[static_cast<std::size_t>(ctx.pid())] = running;
    for (const auto& message : ctx.recv_all()) {
      rt::UnpackBuffer reader{message};
      totals[static_cast<std::size_t>(message.src_pid)] = reader.unpack<T>();
    }
    T prefix = identity;
    ctx.charge_compute(static_cast<double>(ctx.nprocs()));
    for (int pid = 0; pid < ctx.nprocs(); ++pid) {
      if (pid != root_pid) {
        rt::PackBuffer out;
        out.pack<T>(prefix);  // exclusive offset for pid
        ctx.send(pid, out.take(), 1);
      } else {
        detail::scan_offset_stash<T> = prefix;
      }
      prefix = op(prefix, totals[static_cast<std::size_t>(pid)]);
    }
  }
  ctx.sync_scope(tree.root());

  // Superstep 3: apply the offset locally.
  T offset = identity;
  if (ctx.pid() == root_pid) {
    offset = detail::scan_offset_stash<T>;
  } else {
    auto messages = ctx.recv_all();
    if (messages.size() != 1) {
      throw std::logic_error{"scan: expected exactly one offset message"};
    }
    rt::UnpackBuffer reader{messages.front()};
    offset = reader.unpack<T>();
  }
  for (T& value : local) value = op(offset, value);
  if (!local.empty()) ctx.charge_compute(static_cast<double>(local.size()));
  ctx.sync_scope(tree.root());
  return local;
}

/// HBSP^1 all-to-all personalised exchange: each processor splits its share
/// into nprocs blocks (equal split, largest-first remainder) and sends block
/// i to processor i. Returns the received blocks concatenated in source pid
/// order (own block included).
template <typename T>
std::vector<T> alltoall(rt::Hbsp& ctx, std::span<const T> mine, std::size_t n,
                        Shares shares = Shares::kBalanced) {
  const MachineTree& tree = ctx.machine();
  detail::require_flat(tree, "alltoall");
  const auto split = leaf_shares(tree, n, shares);
  if (mine.size() != split[static_cast<std::size_t>(ctx.pid())]) {
    throw std::invalid_argument{"alltoall: local data does not match the plan"};
  }
  const auto p = static_cast<std::size_t>(ctx.nprocs());
  const auto blocks = equal_partition(mine.size(), p);
  std::vector<std::size_t> offsets(p + 1, 0);
  for (std::size_t i = 0; i < p; ++i) offsets[i + 1] = offsets[i] + blocks[i];

  for (std::size_t i = 0; i < p; ++i) {
    if (static_cast<int>(i) == ctx.pid() || blocks[i] == 0) continue;
    rt::PackBuffer out;
    out.pack_span<T>(std::span<const T>{mine.data() + offsets[i], blocks[i]});
    ctx.send(static_cast<int>(i), out.take(), blocks[i]);
  }
  ctx.sync_scope(tree.root());

  std::vector<std::vector<T>> received(p);
  received[static_cast<std::size_t>(ctx.pid())] = std::vector<T>(
      mine.begin() + static_cast<std::ptrdiff_t>(
                         offsets[static_cast<std::size_t>(ctx.pid())]),
      mine.begin() + static_cast<std::ptrdiff_t>(
                         offsets[static_cast<std::size_t>(ctx.pid())] +
                         blocks[static_cast<std::size_t>(ctx.pid())]));
  for (const auto& message : ctx.recv_all()) {
    rt::UnpackBuffer reader{message};
    received[static_cast<std::size_t>(message.src_pid)] =
        reader.unpack_span<T>(message.items);
  }
  std::vector<T> result;
  for (auto& block : received) {
    result.insert(result.end(), block.begin(), block.end());
  }
  return result;
}

}  // namespace hbsp::coll
