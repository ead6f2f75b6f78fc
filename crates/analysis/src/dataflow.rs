//! Interprocedural dataflow scaffolding: an explicit call graph over the
//! [`Model`](crate::model::Model) plus a generic monotone worklist fixpoint.
//!
//! The passes that need whole-program facts (metadata-write protection,
//! mutates-before-blocking bits) share the same shape: a per-function fact,
//! a transfer function that recomputes one function's fact from its own body
//! plus its neighbours' current facts, and a worklist that re-queues
//! dependents until nothing changes. [`solve`] implements that loop
//! once, with a hard iteration cap so even a buggy (non-monotone) transfer
//! function terminates — the cap is far above what any monotone analysis on
//! this workspace needs, and the returned round count lets tests assert the
//! fixpoint actually converged instead of being cut off.

use std::collections::VecDeque;

use crate::model::Model;

/// The resolved call graph: name-based like [`Model::resolve`], but filtered
/// by call-site arity ([`Model::resolve_arity`]) so a `.remove(&k)` map call
/// does not edge into every three-argument `remove` in the tree.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `callees[f]` = (index into `funcs[f].calls`, callee function index).
    pub callees: Vec<Vec<(usize, usize)>>,
    /// `callers[g]` = functions with at least one call edge into `g`.
    pub callers: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Resolves every call site of every non-test function.
    pub fn build(model: &Model) -> CallGraph {
        let n = model.funcs.len();
        let mut callees: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (f, func) in model.funcs.iter().enumerate() {
            if func.is_test {
                continue;
            }
            for (ci, call) in func.calls.iter().enumerate() {
                for g in model.resolve_arity(f, call) {
                    callees[f].push((ci, g));
                    if !callers[g].contains(&f) {
                        callers[g].push(f);
                    }
                }
            }
        }
        CallGraph { callees, callers }
    }
}

/// Upper bound on worklist pops for `n` nodes. Public so tests can assert a
/// converged run stayed strictly below it.
pub fn solve_cap(n: usize) -> usize {
    64usize.saturating_mul(n.max(1)).saturating_add(1024)
}

/// Generic monotone worklist fixpoint over `n` nodes.
///
/// `init` seeds each node's fact, `transfer` recomputes one node's fact from
/// the current fact vector, and `deps(f)` names the nodes to re-queue when
/// `f`'s fact changes (callers for a bottom-up summary, callees for a
/// top-down reachability). Returns the facts and the number of worklist pops;
/// the loop stops unconditionally at [`solve_cap`]`(n)` pops, so it
/// terminates even on cyclic graphs with a non-monotone transfer.
pub fn solve<T, D, I, F>(n: usize, deps: D, init: I, transfer: F) -> (Vec<T>, usize)
where
    T: Clone + PartialEq,
    D: Fn(usize) -> Vec<usize>,
    I: Fn(usize) -> T,
    F: Fn(usize, &[T]) -> T,
{
    let mut facts: Vec<T> = (0..n).map(init).collect();
    let mut queued = vec![true; n];
    let mut queue: VecDeque<usize> = (0..n).collect();
    let cap = solve_cap(n);
    let mut rounds = 0usize;
    while let Some(f) = queue.pop_front() {
        queued[f] = false;
        rounds += 1;
        if rounds > cap {
            break;
        }
        let new = transfer(f, &facts);
        if new != facts[f] {
            facts[f] = new;
            for d in deps(f) {
                if d < n && !queued[d] {
                    queued[d] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    (facts, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyclic_model() -> Model {
        // a → b → c → a, with d recursing on itself: every shape of cycle the
        // real call graph can contain.
        let mut m = Model::default();
        m.add_file(
            "crates/fs/src/lib.rs".into(),
            "fn a(x: u64) { b(x) }\nfn b(x: u64) { c(x) }\nfn c(x: u64) { a(x) }\nfn d(x: u64) { d(x) }",
        );
        m.index();
        m
    }

    #[test]
    fn fixpoint_terminates_on_cyclic_and_recursive_call_graphs() {
        let m = cyclic_model();
        let cg = CallGraph::build(&m);
        // Bottom-up "reaches d" style bit: monotone, must converge well under
        // the cap despite the cycles.
        let (facts, rounds) = solve(
            m.funcs.len(),
            |f| cg.callers[f].clone(),
            |f| m.funcs[f].name == "d",
            |f, facts| facts[f] || cg.callees[f].iter().any(|&(_, g)| facts[g]),
        );
        assert!(
            rounds < solve_cap(m.funcs.len()),
            "must converge, not be cut off"
        );
        // d reaches d; the a/b/c cycle never calls d.
        let idx = |n: &str| m.funcs.iter().position(|f| f.name == n).unwrap();
        assert!(facts[idx("d")]);
        assert!(!facts[idx("a")] && !facts[idx("b")] && !facts[idx("c")]);
    }

    #[test]
    fn cap_bounds_a_non_monotone_transfer() {
        // A transfer that flips its fact every visit never converges; the cap
        // must still end the loop.
        let (_, rounds) = solve(3, |_| vec![0, 1, 2], |_| 0u64, |f, facts| facts[f] + 1);
        assert!(rounds >= solve_cap(3), "ran to the cap");
    }

    #[test]
    fn call_graph_records_forward_and_reverse_edges() {
        let m = cyclic_model();
        let cg = CallGraph::build(&m);
        let idx = |n: &str| m.funcs.iter().position(|f| f.name == n).unwrap();
        assert_eq!(cg.callees[idx("a")].len(), 1);
        assert_eq!(cg.callees[idx("a")][0].1, idx("b"));
        assert_eq!(cg.callers[idx("a")], vec![idx("c")]);
        assert_eq!(cg.callers[idx("d")], vec![idx("d")]);
    }
}
