// tslint-fixture: worker-capture-purity
// A grid worker reaching for the shared process-default observability scope:
// Observability::Default() is never a disjoint slot, so registering or
// mutating through it from inside a ParallelFor body depends on wall-clock
// scheduling order. Both constructs below must trip.
namespace fixture {

// Correct placement: the process default is fine outside any worker span, and
// resolving the handle inside a Register*-style helper satisfies
// handle-resolution-at-construction.
void RegisterCellTotal(std::size_t n) {
  Observability::Default().metrics.GetCounter("grid/cells")->Add(static_cast<double>(n));
}

void RunCells(ThreadPool& pool, CellSlot* slots, std::size_t n) {
  pool.ParallelFor(n, [&](std::size_t i) {
    Observability::Default().metrics.GetCounter("cell/runs")->Add(1);  // WRONG
    slots[i].result = RunCell(slots[i].spec, Observability::Default());  // WRONG
  });
  RegisterCellTotal(n);
}

}  // namespace fixture
