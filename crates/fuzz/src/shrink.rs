//! Deterministic greedy shrinker: given a spec whose lattice run diverges,
//! find a smaller spec that still diverges.
//!
//! Candidates are proposed coarse-to-fine — fewer iterations, then whole
//! actions, then whole groups (classes), then per-group trimmings (drop the
//! subclass, the interface, the static state, a field, the self-flip) —
//! and each accepted candidate restarts the pass, so the result is a local
//! fixpoint: no single remaining simplification preserves the divergence.
//! Every candidate re-lowers through the strict builder; anything that
//! fails to lower (impossible by construction, but the check is free) is
//! simply skipped.

use crate::gen::{Action, Spec};

/// All one-step simplifications of `spec`, coarsest first.
fn candidates(spec: &Spec) -> Vec<Spec> {
    let mut out = Vec::new();
    let mut push = |s: Spec| {
        if s != *spec {
            out.push(s);
        }
    };

    if spec.iters > 1 {
        push(Spec {
            iters: 1,
            ..spec.clone()
        });
        push(Spec {
            iters: spec.iters / 2,
            ..spec.clone()
        });
    }

    for i in 0..spec.actions.len() {
        let mut s = spec.clone();
        s.actions.remove(i);
        push(s);
    }

    for g in 0..spec.groups.len() {
        let mut s = spec.clone();
        s.groups.remove(g);
        push(s);
    }

    for (g, gs) in spec.groups.iter().enumerate() {
        if gs.has_subclass {
            let mut s = spec.clone();
            s.groups[g].has_subclass = false;
            push(s);
        }
        if gs.has_interface {
            let mut s = spec.clone();
            s.groups[g].has_interface = false;
            push(s);
        }
        if gs.static_state.is_some() {
            let mut s = spec.clone();
            s.groups[g].static_state = None;
            push(s);
        }
        if gs.work_self_flip {
            let mut s = spec.clone();
            s.groups[g].work_self_flip = false;
            push(s);
        }
        for f in 0..gs.fields.len() {
            if gs.fields.len() > 1 {
                let mut s = spec.clone();
                s.groups[g].fields.remove(f);
                push(s);
            }
        }
    }

    for (i, a) in spec.actions.iter().enumerate() {
        if let Action::AllocBurst { group, count } = a {
            if *count > 1 {
                let mut s = spec.clone();
                s.actions[i] = Action::AllocBurst {
                    group: *group,
                    count: 1,
                };
                push(s);
            }
        }
    }

    out
}

/// Greedily shrinks `spec` while `still` (re-lower, re-plan, re-run the
/// relevant configs) keeps returning true for the candidate.
pub fn shrink(spec: &Spec, still: &mut dyn FnMut(&Spec) -> bool) -> Spec {
    let mut cur = spec.clone();
    'fixpoint: loop {
        for cand in candidates(&cur) {
            if still(&cand) {
                cur = cand;
                continue 'fixpoint;
            }
        }
        return cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FieldSpec, GroupSpec};

    #[test]
    fn candidates_are_strictly_simpler_or_equal_size() {
        let spec = generate(3);
        for c in candidates(&spec) {
            assert_ne!(c, spec);
            assert!(
                c.iters < spec.iters
                    || c.actions.len() <= spec.actions.len()
                    || c.groups.len() < spec.groups.len()
            );
        }
    }

    #[test]
    fn shrink_reaches_a_fixpoint_under_a_size_predicate() {
        // A predicate that only cares about one structural feature: the
        // shrinker must strip everything else away.
        let spec = (0..100)
            .map(generate)
            .find(|s| s.groups.iter().any(|g| g.work_self_flip))
            .expect("some early seed has a self-flipping group");
        let min = shrink(&spec, &mut |s: &Spec| {
            s.groups.iter().any(|g| g.work_self_flip)
        });
        assert!(min.groups.iter().any(|g| g.work_self_flip));
        assert_eq!(min.groups.len(), 1);
        assert!(min.actions.is_empty());
        assert_eq!(min.iters, 1);
        // Fixpoint: no remaining one-step simplification satisfies the
        // predicate (the only candidates left drop the flipping group).
        for c in candidates(&min) {
            assert!(!c.groups.iter().any(|g| g.work_self_flip));
        }
    }

    #[test]
    fn shrinking_a_storm_preserves_the_flip_loop() {
        // Shrink the checked-in two-class storm under "still wakes the
        // governor": the minimizer may drop a class and the redundant
        // explicit flips, but the storm engine itself — a self-flipping
        // `work` driven by a call action, looped enough to trip the
        // throttle threshold — must survive.
        let (_, spec) = crate::corpus_specs()
            .into_iter()
            .find(|(n, _)| *n == "two-class-storm")
            .expect("corpus has the storm case");
        let cfgs = crate::lattice();
        let gov = cfgs.iter().find(|c| c.name == "adaptive-mut").unwrap();
        let storms = |s: &Spec| {
            crate::compile_spec(s)
                .map(|(p, plan)| crate::run_config(&p, &plan, gov).specials_throttled > 0)
                .unwrap_or(false)
        };
        assert!(storms(&spec), "the corpus case must storm to begin with");
        let min = shrink(&spec, &mut |s: &Spec| storms(s));
        assert!(storms(&min));
        assert_eq!(min.groups.len(), 1);
        assert!(min.groups[0].work_self_flip);
        assert!(min
            .actions
            .iter()
            .any(|a| matches!(a, Action::CallWork { .. })));
        assert!(min.iters > 1, "one lap cannot trip the throttle threshold");
    }

    #[test]
    fn fully_minimal_specs_produce_no_self_candidates() {
        let tiny = Spec {
            groups: vec![GroupSpec {
                fields: vec![FieldSpec { hot: 0, alt: 1 }],
                has_interface: false,
                has_subclass: false,
                static_state: None,
                work_self_flip: false,
            }],
            actions: vec![],
            iters: 1,
        };
        // Only the group-removal candidate remains.
        let cands = candidates(&tiny);
        assert_eq!(cands.len(), 1);
        assert!(cands[0].groups.is_empty());
    }
}
