//! Lock-step SPMD execution of a distributed SDFG.

use crate::comm::{SimComm, ABORT_PREFIX};
use fuzzyflow_interp::{ExecError, ExecOptions, ExecState, Program};
use fuzzyflow_ir::Sdfg;
use fuzzyflow_pool::WorkerPool;
use std::sync::Mutex;

/// Runs one SPMD program on every rank of a simulated communicator, as a
/// co-scheduled gang on the process-wide [`WorkerPool`], all ranks
/// sharing one [`SimComm`]. `states[r]` is rank `r`'s initial state;
/// `rank` and
/// `nranks` are bound automatically. Returns the per-rank final states in
/// rank order.
///
/// Ranks block on each other inside collective rendezvous, so they are
/// scheduled through [`WorkerPool::gang`]: the pool reserves workers for
/// as many ranks as it can promise and tops up the rest with temporary
/// threads, guaranteeing all ranks can be live simultaneously even on a
/// saturated pool.
///
/// If any rank fails, the communicator is poisoned so collectives the
/// surviving ranks are blocked in return instead of deadlocking, and the
/// *originating* failure is reported — not the secondary "collective
/// aborted" fallout the other ranks observe.
pub fn run_distributed(
    sdfg: &Sdfg,
    states: Vec<ExecState>,
    opts: &ExecOptions,
) -> Result<Vec<ExecState>, ExecError> {
    if states.is_empty() {
        return Ok(states);
    }
    let nranks = states.len();
    let comm = SimComm::new(nranks);
    // Compile the SPMD program once; every rank executes the same shared
    // compiled program with its own executor.
    let program = Program::compile(sdfg);

    // One cell per rank: the gang closure is shared by all members, so
    // each rank takes exclusive ownership of its state through its cell.
    type RankCell = Mutex<(ExecState, Option<Result<(), ExecError>>)>;
    let cells: Vec<RankCell> = states
        .into_iter()
        .map(|st| Mutex::new((st, None)))
        .collect();
    WorkerPool::global().gang(nranks, |rank| {
        let mut cell = cells[rank].lock().expect("rank cell poisoned");
        let (st, slot) = &mut *cell;
        st.bind("rank", rank as i64).bind("nranks", nranks as i64);
        let res = program.executor().run_in_place(st, opts, Some(&comm), None);
        if let Err(e) = &res {
            comm.poison(&format!("{ABORT_PREFIX}: rank {rank} failed: {e}"));
        }
        comm.leave(rank);
        *slot = Some(res);
    });

    let mut states = Vec::with_capacity(nranks);
    let mut results = Vec::with_capacity(nranks);
    for cell in cells {
        let (st, res) = cell.into_inner().expect("rank cell poisoned");
        states.push(st);
        results.push(res.expect("every rank ran"));
    }

    // Prefer a root-cause error over poison fallout.
    let mut fallout = None;
    for res in results {
        match res {
            Ok(()) => {}
            Err(e) => {
                if is_fallout(&e) {
                    fallout.get_or_insert(e);
                } else {
                    return Err(e);
                }
            }
        }
    }
    match fallout {
        Some(e) => Err(e),
        None => Ok(states),
    }
}

fn is_fallout(e: &ExecError) -> bool {
    matches!(e, ExecError::Malformed(m) if m.contains(ABORT_PREFIX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::has_communication;
    use fuzzyflow_interp::ArrayValue;
    use fuzzyflow_ir::{sym, CommOp, DType, LibraryOp, Memlet, SdfgBuilder, Subset, Wcr};

    /// `B = allreduce_sum(A)` over N-element buffers.
    fn allreduce_program() -> Sdfg {
        let mut b = SdfgBuilder::new("allreduce");
        b.symbol("N");
        b.array("A", DType::F64, &["N"]);
        b.array("B", DType::F64, &["N"]);
        let st = b.start();
        b.in_state(st, |df| {
            let a = df.access("A");
            let bb = df.access("B");
            let ar = df.library("sum_all", LibraryOp::Comm(CommOp::AllReduce(Wcr::Sum)));
            df.read(
                a,
                ar,
                Memlet::new("A", Subset::full(&[sym("N")])).to_conn("in"),
            );
            df.write(
                ar,
                bb,
                Memlet::new("B", Subset::full(&[sym("N")])).from_conn("out"),
            );
        });
        b.build()
    }

    fn state_with(n: i64, vals: &[f64]) -> ExecState {
        let mut st = ExecState::new();
        st.bind("N", n);
        st.set_array("A", ArrayValue::from_f64(vec![n], vals));
        st
    }

    #[test]
    fn allreduce_program_sums_across_ranks() {
        let p = allreduce_program();
        assert!(has_communication(&p));
        let states = vec![
            state_with(3, &[1.0, 2.0, 3.0]),
            state_with(3, &[10.0, 20.0, 30.0]),
            state_with(3, &[100.0, 200.0, 300.0]),
        ];
        let out = run_distributed(&p, states, &ExecOptions::default()).unwrap();
        for (rank, st) in out.iter().enumerate() {
            assert_eq!(
                st.array("B").unwrap().to_f64_vec(),
                vec![111.0, 222.0, 333.0],
                "rank {rank}"
            );
        }
    }

    #[test]
    fn rank_and_nranks_are_bound() {
        let p = allreduce_program();
        let out = run_distributed(
            &p,
            vec![state_with(1, &[0.0]), state_with(1, &[0.0])],
            &ExecOptions::default(),
        )
        .unwrap();
        for (r, st) in out.iter().enumerate() {
            assert_eq!(st.symbols.get("rank"), Some(r as i64));
            assert_eq!(st.symbols.get("nranks"), Some(2));
        }
    }

    #[test]
    fn failing_rank_reports_root_cause_not_fallout() {
        // Rank 1 has "N" unbound, so its allocation fails before it ever
        // reaches the collective; ranks 0 and 2 block in the rendezvous
        // and must be released with the fallout error, while the caller
        // sees rank 1's original symbolic error.
        let p = allreduce_program();
        let mut bad = ExecState::new();
        bad.set_array("A", ArrayValue::from_f64(vec![1], &[0.0]));
        // "N" deliberately unbound on rank 1.
        let states = vec![state_with(1, &[0.0]), bad, state_with(1, &[0.0])];
        let err = run_distributed(&p, states, &ExecOptions::default()).unwrap_err();
        assert!(
            matches!(err, ExecError::Sym(_)),
            "expected the root-cause symbolic error, got: {err}"
        );
    }

    #[test]
    fn empty_rank_list_is_a_noop() {
        let p = allreduce_program();
        assert!(run_distributed(&p, vec![], &ExecOptions::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn distributed_runs_are_deterministic_across_reruns() {
        let p = allreduce_program();
        let mk = || {
            (0..4)
                .map(|r| {
                    // Golden-ratio fractions: a closed-form sequence of
                    // full-mantissa values, distinct per rank.
                    let vals: Vec<f64> = (0..8)
                        .map(|i| ((r * 8 + i + 1) as f64 * 0.618_033_988_749_895).fract())
                        .collect();
                    state_with(8, &vals)
                })
                .collect::<Vec<_>>()
        };
        let a = run_distributed(&p, mk(), &ExecOptions::default()).unwrap();
        let b = run_distributed(&p, mk(), &ExecOptions::default()).unwrap();
        for rank in 0..4 {
            // Bit-identical, not approximately equal.
            assert!(a[rank]
                .array("B")
                .unwrap()
                .first_mismatch(b[rank].array("B").unwrap(), 0.0)
                .is_none());
        }
    }
}
