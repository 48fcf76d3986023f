//! The rank-simulating communicator.

use fuzzyflow_interp::{ArrayValue, CommHandler, ExecError};
use fuzzyflow_ir::{CommOp, Scalar, Wcr};
use std::sync::{Condvar, Mutex};

/// Marker prefix for errors that are fallout of another rank's failure
/// rather than a failure of the reporting rank itself. [`run_distributed`]
/// uses it to surface the root cause instead of the fallout.
///
/// [`run_distributed`]: crate::run_distributed
pub(crate) const ABORT_PREFIX: &str = "collective aborted";

/// Simulated communicator for `nranks` ranks.
///
/// Every collective is a *rendezvous*: the call blocks until all ranks
/// have entered, checks that they all entered the same collective node
/// (matched delivery — a rank entering a different collective, or the
/// same rank entering twice, is an SPMD divergence and poisons the
/// communicator), computes all per-rank results from the rank-ordered
/// contributions, and releases the ranks together (barrier semantics:
/// no rank observes a result before every rank has contributed, and the
/// communicator does not accept the next round until every rank has
/// collected the current one).
pub struct SimComm {
    nranks: usize,
    state: Mutex<Rendezvous>,
    cv: Condvar,
}

#[derive(Default)]
struct Rendezvous {
    /// Name of the collective node of the in-flight round.
    node: Option<String>,
    /// Operation of the in-flight round (must match across ranks).
    op: Option<CommOp>,
    /// Per-rank contributions of the in-flight round.
    contribs: Vec<Option<ArrayValue>>,
    /// Per-rank results once the round completed (distribution phase).
    results: Option<Vec<ArrayValue>>,
    /// Which ranks have collected their result this round.
    collected: Vec<bool>,
    /// Completed rounds, for diagnostics.
    rounds: u64,
    /// Ranks that exited `run_distributed` (successfully or not).
    left: Vec<bool>,
    /// Fatal condition; all current and future calls fail.
    poison: Option<String>,
}

impl SimComm {
    /// Communicator for `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "SimComm needs at least one rank");
        SimComm {
            nranks,
            state: Mutex::new(Rendezvous {
                contribs: vec![None; nranks],
                collected: vec![false; nranks],
                left: vec![false; nranks],
                ..Rendezvous::default()
            }),
            cv: Condvar::new(),
        }
    }

    /// Number of simulated ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Completed collective rounds so far.
    pub fn rounds(&self) -> u64 {
        self.state.lock().unwrap().rounds
    }

    /// Marks the communicator as failed: every rank currently blocked in
    /// a rendezvous (and every future call) returns an error instead of
    /// deadlocking. Used when a rank dies outside a collective.
    pub fn poison(&self, reason: &str) {
        let mut st = self.state.lock().unwrap();
        if st.poison.is_none() {
            st.poison = Some(reason.to_string());
        }
        self.cv.notify_all();
    }

    /// Records that `rank` finished executing (normally or not). If a
    /// rendezvous is in flight that still waits on this rank, the round
    /// can never complete — poison it.
    pub(crate) fn leave(&self, rank: usize) {
        let mut st = self.state.lock().unwrap();
        st.left[rank] = true;
        if st.results.is_none()
            && st.contribs.iter().any(Option::is_some)
            && st.contribs[rank].is_none()
        {
            let node = st.node.clone().unwrap_or_default();
            st.poison.get_or_insert_with(|| {
                format!("{ABORT_PREFIX}: rank {rank} exited during collective '{node}'")
            });
        }
        self.cv.notify_all();
    }

    fn abort_err(reason: &str) -> ExecError {
        if reason.starts_with(ABORT_PREFIX) {
            ExecError::Malformed(reason.to_string())
        } else {
            ExecError::Malformed(format!("{ABORT_PREFIX}: {reason}"))
        }
    }

    fn mismatch(st: &mut Rendezvous, detail: String) -> ExecError {
        let msg = format!("communication mismatch: {detail}");
        st.poison.get_or_insert_with(|| msg.clone());
        ExecError::Malformed(msg)
    }
}

impl CommHandler for SimComm {
    fn collective(
        &self,
        node: &str,
        op: &CommOp,
        rank: i64,
        input: &ArrayValue,
    ) -> Result<ArrayValue, ExecError> {
        if rank < 0 || rank as usize >= self.nranks {
            return Err(ExecError::Malformed(format!(
                "collective '{node}': rank {rank} outside communicator of size {}",
                self.nranks
            )));
        }
        let rank = rank as usize;
        let mut st = self.state.lock().unwrap();

        // A rank re-entering while the previous round is still being
        // distributed waits for the communicator to reset first.
        while st.poison.is_none() && st.results.is_some() && st.collected[rank] {
            st = self.cv.wait(st).unwrap();
        }
        if let Some(reason) = &st.poison {
            let err = Self::abort_err(reason);
            self.cv.notify_all();
            return Err(err);
        }

        // Matched-delivery checks: all ranks must be alive and enter the
        // same collective node exactly once per round.
        if let Some(gone) = st.left.iter().position(|&l| l) {
            let detail =
                format!("rank {rank} entered '{node}' but rank {gone} already exited the program");
            let err = Self::mismatch(&mut st, detail);
            self.cv.notify_all();
            return Err(err);
        }
        match (&st.node, &st.op) {
            (None, _) => {
                st.node = Some(node.to_string());
                st.op = Some(op.clone());
            }
            (Some(cur), _) if cur != node => {
                let detail =
                    format!("rank {rank} entered '{node}' while other ranks are in '{cur}'");
                let err = Self::mismatch(&mut st, detail);
                self.cv.notify_all();
                return Err(err);
            }
            (Some(_), Some(cur_op)) if cur_op != op => {
                let detail = format!("ranks disagree on the operation of '{node}'");
                let err = Self::mismatch(&mut st, detail);
                self.cv.notify_all();
                return Err(err);
            }
            _ => {}
        }
        if st.contribs[rank].is_some() {
            let detail = format!("rank {rank} entered '{node}' twice without a barrier");
            let err = Self::mismatch(&mut st, detail);
            self.cv.notify_all();
            return Err(err);
        }
        st.contribs[rank] = Some(input.clone());

        // Last contributor computes every rank's result from the
        // rank-ordered contributions — deterministic by construction.
        if st.contribs.iter().all(Option::is_some) {
            let contribs: Vec<ArrayValue> =
                st.contribs.iter_mut().map(|c| c.take().unwrap()).collect();
            match compute(node, op, &contribs) {
                Ok(results) => {
                    st.results = Some(results);
                    st.collected.iter_mut().for_each(|c| *c = false);
                }
                Err(e) => {
                    st.poison
                        .get_or_insert_with(|| format!("collective '{node}' failed: {e}"));
                    self.cv.notify_all();
                    return Err(e);
                }
            }
            self.cv.notify_all();
        } else {
            while st.results.is_none() && st.poison.is_none() {
                st = self.cv.wait(st).unwrap();
            }
            if let Some(reason) = &st.poison {
                return Err(Self::abort_err(reason));
            }
        }

        // Distribution phase: collect this rank's result; the last
        // collector resets the communicator for the next round.
        let out = st.results.as_ref().expect("results present")[rank].clone();
        st.collected[rank] = true;
        if st.collected.iter().all(|&c| c) {
            st.results = None;
            st.node = None;
            st.op = None;
            st.contribs.iter_mut().for_each(|c| *c = None);
            st.rounds += 1;
        }
        self.cv.notify_all();
        Ok(out)
    }
}

/// Computes every rank's local result for one completed collective.
fn compute(node: &str, op: &CommOp, contribs: &[ArrayValue]) -> Result<Vec<ArrayValue>, ExecError> {
    let n = contribs.len();
    match op {
        CommOp::AllGather => {
            // Concatenate along axis 0, rank order; replicate to all.
            // Compare without indexing: a panic here would hold the
            // rendezvous lock and strand every other rank in cv.wait.
            let first_shape = contribs[0].shape().to_vec();
            for c in contribs {
                if c.shape().len() != first_shape.len()
                    || c.shape().get(1..) != first_shape.get(1..)
                {
                    return Err(ExecError::ShapeError {
                        node: node.into(),
                        detail: format!(
                            "allgather contributions disagree beyond axis 0: {:?} vs {:?}",
                            first_shape,
                            c.shape()
                        ),
                    });
                }
            }
            let mut shape = first_shape;
            if shape.is_empty() {
                shape = vec![1];
            }
            shape[0] = contribs
                .iter()
                .map(|c| c.shape().first().copied().unwrap_or(1))
                .sum();
            let mut out = ArrayValue::zeros(contribs[0].dtype(), shape);
            let mut off = 0usize;
            for c in contribs {
                for i in 0..c.len() {
                    out.set(off + i, c.get(i));
                }
                off += c.len();
            }
            Ok(vec![out; n])
        }
        CommOp::AllReduce(wcr) => {
            let len = contribs[0].len();
            for c in contribs {
                if c.len() != len {
                    return Err(ExecError::ShapeError {
                        node: node.into(),
                        detail: format!("allreduce buffers differ in size: {} vs {}", len, c.len()),
                    });
                }
            }
            let mut out = contribs[0].clone();
            for c in &contribs[1..] {
                for i in 0..len {
                    out.set(i, reduce_scalar(*wcr, out.get(i), c.get(i)));
                }
            }
            Ok(vec![out; n])
        }
        CommOp::Broadcast { root } => {
            if *root < 0 || *root as usize >= n {
                return Err(ExecError::ShapeError {
                    node: node.into(),
                    detail: format!("broadcast root {root} outside communicator of size {n}"),
                });
            }
            Ok(vec![contribs[*root as usize].clone(); n])
        }
    }
}

fn reduce_scalar(wcr: Wcr, a: Scalar, b: Scalar) -> Scalar {
    let float = a.dtype().is_float() || b.dtype().is_float();
    if float {
        let (x, y) = (a.as_f64(), b.as_f64());
        Scalar::F64(match wcr {
            Wcr::Sum => x + y,
            Wcr::Prod => x * y,
            Wcr::Max => x.max(y),
            Wcr::Min => x.min(y),
        })
        .cast(a.dtype())
    } else {
        let (x, y) = (a.as_i64(), b.as_i64());
        Scalar::I64(match wcr {
            Wcr::Sum => x.wrapping_add(y),
            Wcr::Prod => x.wrapping_mul(y),
            Wcr::Max => x.max(y),
            Wcr::Min => x.min(y),
        })
        .cast(a.dtype())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyflow_ir::DType;
    use std::thread;

    fn f64s(vals: &[f64]) -> ArrayValue {
        ArrayValue::from_f64(vec![vals.len() as i64], vals)
    }

    /// Runs `op` as a matched collective on `n` threads, returning each
    /// rank's local result.
    fn run_matched(
        comm: &SimComm,
        node: &str,
        op: &CommOp,
        inputs: Vec<ArrayValue>,
    ) -> Vec<Result<ArrayValue, ExecError>> {
        thread::scope(|s| {
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(r, input)| s.spawn(move || comm.collective(node, op, r as i64, input)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let comm = SimComm::new(3);
        let ins = vec![f64s(&[1.0, 2.0]), f64s(&[3.0, 4.0]), f64s(&[5.0, 6.0])];
        let outs = run_matched(&comm, "ag", &CommOp::AllGather, ins);
        for out in outs {
            assert_eq!(
                out.unwrap().to_f64_vec(),
                vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
            );
        }
        assert_eq!(comm.rounds(), 1);
    }

    #[test]
    fn allgather_of_scalars_concatenates_without_hanging() {
        // Regression: rank-0 (shape []) contributions used to panic in
        // compute() while holding the rendezvous lock, stranding every
        // other rank in cv.wait forever.
        let comm = SimComm::new(3);
        let ins: Vec<ArrayValue> = (0..3)
            .map(|r| ArrayValue::from_f64(vec![], &[r as f64]))
            .collect();
        let outs = run_matched(&comm, "ag", &CommOp::AllGather, ins);
        for out in outs {
            assert_eq!(out.unwrap().to_f64_vec(), vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn allgather_rank_mismatch_errors_instead_of_hanging() {
        let comm = SimComm::new(2);
        let ins = vec![
            ArrayValue::from_f64(vec![2], &[1.0, 2.0]),
            ArrayValue::from_f64(vec![2, 1], &[3.0, 4.0]),
        ];
        let outs = run_matched(&comm, "ag", &CommOp::AllGather, ins);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Err(ExecError::ShapeError { .. }))));
        assert!(
            outs.iter().all(|o| o.is_err()),
            "no rank may be left hanging"
        );
    }

    #[test]
    fn allreduce_combines_elementwise() {
        let comm = SimComm::new(2);
        let ins = vec![f64s(&[1.0, 10.0]), f64s(&[2.0, 20.0])];
        let outs = run_matched(&comm, "ar", &CommOp::AllReduce(Wcr::Sum), ins);
        for out in outs {
            assert_eq!(out.unwrap().to_f64_vec(), vec![3.0, 30.0]);
        }
    }

    #[test]
    fn broadcast_replicates_root_buffer() {
        let comm = SimComm::new(3);
        let ins = vec![f64s(&[9.0]), f64s(&[7.0]), f64s(&[5.0])];
        let outs = run_matched(&comm, "bc", &CommOp::Broadcast { root: 1 }, ins);
        for out in outs {
            assert_eq!(out.unwrap().to_f64_vec(), vec![7.0]);
        }
    }

    #[test]
    fn consecutive_rounds_are_barrier_separated() {
        // Two back-to-back collectives: the communicator must not mix
        // contributions across rounds even when threads race ahead.
        let comm = SimComm::new(4);
        let results = thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let comm = &comm;
                    s.spawn(move || {
                        let a = comm
                            .collective("first", &CommOp::AllGather, r, &f64s(&[r as f64]))
                            .unwrap();
                        let b = comm
                            .collective(
                                "second",
                                &CommOp::AllReduce(Wcr::Max),
                                r,
                                &f64s(&[a.to_f64_vec()[r as usize] + 10.0]),
                            )
                            .unwrap();
                        (a.to_f64_vec(), b.to_f64_vec())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for (a, b) in results {
            assert_eq!(a, vec![0.0, 1.0, 2.0, 3.0]);
            assert_eq!(b, vec![13.0]);
        }
        assert_eq!(comm.rounds(), 2);
    }

    #[test]
    fn mismatched_collectives_poison_instead_of_deadlock() {
        let comm = SimComm::new(2);
        let (a, b) = thread::scope(|s| {
            let h0 = s.spawn(|| comm.collective("gather", &CommOp::AllGather, 0, &f64s(&[1.0])));
            let h1 = s.spawn(|| {
                comm.collective("reduce", &CommOp::AllReduce(Wcr::Sum), 1, &f64s(&[2.0]))
            });
            (h0.join().unwrap(), h1.join().unwrap())
        });
        assert!(a.is_err() || b.is_err());
        let msg = a.err().or(b.err()).unwrap().to_string();
        assert!(
            msg.contains("mismatch") || msg.contains(ABORT_PREFIX),
            "{msg}"
        );
    }

    #[test]
    fn poison_releases_blocked_ranks() {
        let comm = SimComm::new(2);
        let res = thread::scope(|s| {
            let h = s.spawn(|| comm.collective("ag", &CommOp::AllGather, 0, &f64s(&[1.0])));
            // Rank 1 never arrives; it dies outside the collective.
            std::thread::sleep(std::time::Duration::from_millis(20));
            comm.poison("rank 1 failed: out-of-bounds");
            h.join().unwrap()
        });
        assert!(res.is_err());
    }

    #[test]
    fn early_exit_of_a_rank_poisons_pending_round() {
        let comm = SimComm::new(2);
        let res = thread::scope(|s| {
            let h = s.spawn(|| comm.collective("ag", &CommOp::AllGather, 0, &f64s(&[1.0])));
            std::thread::sleep(std::time::Duration::from_millis(20));
            comm.leave(1); // rank 1 finished without ever communicating
            h.join().unwrap()
        });
        assert!(res.is_err());
    }

    #[test]
    fn deterministic_results_across_reruns() {
        // Same inputs => bit-identical outputs, independent of thread
        // interleaving.
        let run_once = || {
            let comm = SimComm::new(4);
            // Golden-ratio fractions: a closed-form sequence of
            // full-mantissa values, distinct per rank.
            let ins: Vec<ArrayValue> = (0..4)
                .map(|r| {
                    let vals: Vec<f64> = (0..16)
                        .map(|i| ((r * 16 + i + 1) as f64 * 0.618_033_988_749_895).fract())
                        .collect();
                    f64s(&vals)
                })
                .collect();
            run_matched(&comm, "ag", &CommOp::AllGather, ins)
                .into_iter()
                .map(|r| r.unwrap().to_f64_vec())
                .collect::<Vec<_>>()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
        assert_eq!(a[0].len(), 64);
    }

    #[test]
    fn integer_allreduce_uses_integer_arithmetic() {
        let mk = |v: i64| {
            let mut a = ArrayValue::zeros(DType::I64, vec![1]);
            a.set(0, Scalar::I64(v));
            a
        };
        let comm = SimComm::new(2);
        let outs = run_matched(
            &comm,
            "ar",
            &CommOp::AllReduce(Wcr::Prod),
            vec![mk(3), mk(5)],
        );
        for out in outs {
            let out = out.unwrap();
            assert_eq!(out.get(0), Scalar::I64(15));
        }
    }
}
