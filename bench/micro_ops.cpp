// Micro-benchmarks (google-benchmark) of the runtime's hot operations:
// local vs global lock acquisition, the full acquire/release protocol
// cycle, page transfer, undo capture under both strategies (Section 4.1:
// "local UNDO logs or shadow pages"), GDO lookup and PageSet algebra, and
// the hot-path containers (FlatMap vs std::unordered_map, Arena vs heap).
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "common/arena.hpp"
#include "common/flat_map.hpp"
#include "gdo/gdo_service.hpp"
#include "page/undo_log.hpp"
#include "runtime/cluster.hpp"

namespace lotec {
namespace {

ClusterConfig bench_config(ProtocolKind protocol,
                           UndoStrategy undo = UndoStrategy::kByteRange) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.protocol = protocol;
  cfg.page_size = 4096;
  cfg.undo = undo;
  cfg.seed = 99;
  return cfg;
}

ClassBuilder bench_class(std::uint32_t page_size) {
  ClassBuilder b("Bench", page_size);
  for (int a = 0; a < 16; ++a)
    b.attribute("a" + std::to_string(a), page_size / 4);
  b.method("touch", {"a0"}, {"a0"}, [](MethodContext& ctx) {
    ctx.set<std::int64_t>("a0", ctx.get<std::int64_t>("a0") + 1);
  });
  b.method("wide", {"a0", "a4", "a8", "a12"}, {"a0", "a4", "a8", "a12"},
           [](MethodContext& ctx) {
             for (const char* a : {"a0", "a4", "a8", "a12"})
               ctx.set<std::int64_t>(a, ctx.get<std::int64_t>(a) + 1);
           });
  return b;
}

/// Full root transaction cycle: lock acquire (remote GDO), page transfer,
/// method execution, release.  The alternating node forces the transfer.
void BM_RootTxnCycle(benchmark::State& state) {
  const auto protocol = static_cast<ProtocolKind>(state.range(0));
  Cluster cluster(bench_config(protocol));
  const ClassId cls = cluster.define_class(bench_class(4096));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  int i = 0;
  for (auto _ : state) {
    const TxnResult r =
        cluster.run_root(obj, "touch", NodeId(1 + (i++ % 3)));
    if (!r.committed) state.SkipWithError("txn aborted");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RootTxnCycle)
    ->Arg(static_cast<int>(ProtocolKind::kCotec))
    ->Arg(static_cast<int>(ProtocolKind::kOtec))
    ->Arg(static_cast<int>(ProtocolKind::kLotec))
    ->Arg(static_cast<int>(ProtocolKind::kRc));

/// Same-node repeat: after the first acquisition everything is local.
void BM_RootTxnCycleLocal(benchmark::State& state) {
  Cluster cluster(bench_config(ProtocolKind::kLotec));
  const ClassId cls = cluster.define_class(bench_class(4096));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  for (auto _ : state) {
    const TxnResult r = cluster.run_root(obj, "touch", NodeId(0));
    if (!r.committed) state.SkipWithError("txn aborted");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RootTxnCycleLocal);

/// Raw GDO acquire/release round trip (no pages, no method execution).
void BM_GdoAcquireRelease(benchmark::State& state) {
  Transport transport(4);
  GdoService gdo(transport);
  gdo.register_object(ObjectId(1), 8, NodeId(0));
  std::uint64_t fam = 1;
  for (auto _ : state) {
    const TxnId txn{FamilyId(fam++), 0};
    benchmark::DoNotOptimize(
        gdo.acquire(ObjectId(1), txn, NodeId(1), LockMode::kWrite));
    ReleaseInfo info;
    info.dirty = PageSet(8);
    info.dirty.insert(PageIndex(0));
    benchmark::DoNotOptimize(
        gdo.release_family(ObjectId(1), txn.family, NodeId(1), &info));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GdoAcquireRelease);

/// GDO page-map lookup.
void BM_GdoLookup(benchmark::State& state) {
  Transport transport(4);
  GdoService gdo(transport);
  gdo.register_object(ObjectId(1), static_cast<std::size_t>(state.range(0)),
                      NodeId(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(gdo.lookup_page_map(ObjectId(1), NodeId(2)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GdoLookup)->Arg(4)->Arg(32)->Arg(256);

/// Undo capture cost: byte-range log vs shadow pages, narrow vs wide writes.
void BM_UndoCapture(benchmark::State& state) {
  const auto strategy = static_cast<UndoStrategy>(state.range(0));
  const std::size_t write_bytes = static_cast<std::size_t>(state.range(1));
  ObjectImage image(ObjectId(1), 8, 4096);
  image.materialize_all();
  std::vector<std::byte> data(write_bytes);
  for (auto _ : state) {
    UndoLog log(strategy);
    log.before_write(image, 0, write_bytes);
    image.write_bytes(0, data);
    benchmark::DoNotOptimize(log.memory_bytes());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(to_string(strategy)) + "/" +
                 std::to_string(write_bytes) + "B");
}
BENCHMARK(BM_UndoCapture)
    ->Args({static_cast<int>(UndoStrategy::kByteRange), 64})
    ->Args({static_cast<int>(UndoStrategy::kShadowPage), 64})
    ->Args({static_cast<int>(UndoStrategy::kByteRange), 8192})
    ->Args({static_cast<int>(UndoStrategy::kShadowPage), 8192});

/// Undo rollback (abort) cost.
void BM_UndoRollback(benchmark::State& state) {
  const auto strategy = static_cast<UndoStrategy>(state.range(0));
  ObjectImage image(ObjectId(1), 8, 4096);
  image.materialize_all();
  std::vector<std::byte> data(256);
  for (auto _ : state) {
    UndoLog log(strategy);
    for (int i = 0; i < 16; ++i) {
      log.before_write(image, static_cast<std::uint64_t>(i) * 512, 256);
      image.write_bytes(static_cast<std::uint64_t>(i) * 512, data);
    }
    log.undo([&](ObjectId) -> ObjectImage& { return image; });
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(to_string(strategy));
}
BENCHMARK(BM_UndoRollback)
    ->Arg(static_cast<int>(UndoStrategy::kByteRange))
    ->Arg(static_cast<int>(UndoStrategy::kShadowPage));

/// PageSet algebra on various universe sizes.
void BM_PageSetOps(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  PageSet a(n), b(n);
  for (std::size_t i = 0; i < n; i += 2) a.insert(PageIndex(static_cast<std::uint32_t>(i)));
  for (std::size_t i = 0; i < n; i += 3) b.insert(PageIndex(static_cast<std::uint32_t>(i)));
  for (auto _ : state) {
    PageSet c = (a & b) | (a - b);
    benchmark::DoNotOptimize(c.count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageSetOps)->Arg(8)->Arg(64)->Arg(1024);

/// Hot-table lookup: FlatMap (open addressing, the runtime's per-node
/// object/pin tables) vs std::unordered_map on the same ObjectId keys.
/// The access pattern mirrors meta_of(): uniform hits over a table of
/// state.range(0) live objects.
template <typename Map>
void table_lookup(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Map map;
  for (std::size_t i = 0; i < n; ++i)
    map[ObjectId(static_cast<std::uint32_t>(i * 7 + 3))] = i;
  std::uint32_t probe = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(ObjectId(probe)));
    probe += 7;
    if (probe >= 7 * n + 3) probe = 3;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FlatMapLookup(benchmark::State& state) {
  table_lookup<FlatMap<ObjectId, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapLookup)->Arg(16)->Arg(256)->Arg(4096);

void BM_UnorderedMapLookup(benchmark::State& state) {
  table_lookup<std::unordered_map<ObjectId, std::uint64_t>>(state);
}
BENCHMARK(BM_UnorderedMapLookup)->Arg(16)->Arg(256)->Arg(4096);

/// Attempt-scoped scratch allocation: the undo log's byte-record pattern —
/// a burst of small variable-size buffers that all die together.  Arena
/// reuses its blocks across iterations (reset keeps capacity); the heap
/// variant pays a malloc/free pair per record.
void BM_ArenaAlloc(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  Arena arena;
  for (auto _ : state) {
    for (int i = 0; i < records; ++i) {
      std::byte* p =
          arena.allocate_array<std::byte>(16 + (i % 32) * 16);
      benchmark::DoNotOptimize(p);
    }
    arena.reset();
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ArenaAlloc)->Arg(16)->Arg(256);

void BM_HeapAlloc(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<std::byte[]>> live;
  live.reserve(static_cast<std::size_t>(records));
  for (auto _ : state) {
    for (int i = 0; i < records; ++i) {
      live.push_back(std::make_unique<std::byte[]>(
          static_cast<std::size_t>(16 + (i % 32) * 16)));
      benchmark::DoNotOptimize(live.back().get());
    }
    live.clear();
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_HeapAlloc)->Arg(16)->Arg(256);

}  // namespace
}  // namespace lotec

BENCHMARK_MAIN();
