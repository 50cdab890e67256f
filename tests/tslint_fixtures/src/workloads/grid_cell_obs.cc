// tslint-fixture: none
// The experiment-grid runner's disjoint-slot idiom: a worker may mutate
// observability state owned by its own cell slot (`slots[i]->...` or
// `cells[i].obs...`), because each index is touched by exactly one worker
// and the merge happens after the barrier in submission order
// (bench/experiment_grid.h). None of these registrar/mutator calls may trip
// worker-capture-purity — the receiver chain is subscripted.
namespace fixture {

void RunCells(ThreadPool& pool, CellSlot* slots, std::size_t n) {
  pool.ParallelFor(n, [&](std::size_t i) {
    slots[i].obs.metrics.GetCounter("cell/runs")->Add(1);  // OK: disjoint slot
    slots[i].result = RunCell(slots[i].spec, slots[i].obs);
    slots[at(i)].obs.GetGauge("cell/done")->Set(1.0);  // OK: subscripted receiver
  });
}

void RunCellsPtr(ThreadPool& pool, std::vector<CellSlot*>& slots, std::size_t n) {
  pool.ParallelFor(n, [&](std::size_t i) {
    slots[i]->obs.metrics.GetHistogram("cell/latency")->Record(1.0);  // OK
    slots[i]->m_runs_->Add(1);  // OK: handle owned by the slot
  });
}

}  // namespace fixture
