//! Opening and warming sessions, and turning specs into plans, through the
//! public `Session` API.

use std::collections::BTreeMap;

use fliptracker::{PlanError, Session};
use ftkr_apps::all_apps;
use ftkr_inject::{CampaignPlan, CampaignTarget, FaultSite, RankTarget};

use crate::plans::{AppShape, Spec};

/// The registry's static shape, which the plan generators draw from.
pub fn shapes() -> Vec<AppShape> {
    all_apps().iter().map(AppShape::of).collect()
}

/// How far set-up warms a session beyond resolving its plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warm {
    /// Resolve plans only (their site lists are derived to drop plans with
    /// an empty population).
    Plans,
    /// Also capture every plan's fork-point checkpoint.
    Checkpoints,
    /// Also run the fault-free SPMD job of every plan's rank count.
    Spmd,
}

/// Open sessions and the plans that run on them.
pub struct Prepared {
    /// One session per application the specs name.
    pub sessions: BTreeMap<&'static str, Session>,
    /// Resolved plans, in spec order; specs whose site population is empty
    /// are dropped (the same ones for every run of a seed).
    pub plans: Vec<(Spec, CampaignPlan)>,
}

impl Prepared {
    /// The session a spec runs on.
    pub fn session(&self, spec: &Spec) -> &Session {
        &self.sessions[spec.app]
    }
}

/// The earliest step any site can strike: where a forked campaign's
/// checkpoint is captured (mirrors the session's own fork-point rule).
pub fn fork_step(sites: &[FaultSite]) -> u64 {
    sites.iter().map(|s| s.at_step).min().unwrap_or(0)
}

/// Build the plan of `spec` on `session`; `None` when its site population
/// is empty.
pub fn resolve(session: &Session, spec: &Spec) -> Result<Option<CampaignPlan>, PlanError> {
    let messages = matches!(spec.target, CampaignTarget::Messages);
    let plan = if spec.ranks > 1 || messages {
        session.plan_spmd(
            spec.target.clone(),
            spec.class,
            spec.n_tests,
            spec.ranks,
            RankTarget::Sweep,
        )?
    } else {
        session.plan(spec.target.clone(), spec.class, spec.n_tests)?
    };
    if !messages && session.sites(&spec.target, spec.class)?.is_empty() {
        return Ok(None);
    }
    Ok(Some(plan.with_seed(spec.seed)))
}

/// Open one session per application of `specs` (`Session::by_name`),
/// resolve every spec, and warm as `warm` asks.
pub fn prepare(specs: &[Spec], warm: Warm) -> Result<Prepared, String> {
    let mut sessions = BTreeMap::new();
    for spec in specs {
        if !sessions.contains_key(spec.app) {
            let session = Session::by_name(spec.app)
                .ok_or_else(|| format!("unknown application {}", spec.app))?;
            sessions.insert(spec.app, session);
        }
    }
    let mut plans = Vec::new();
    for spec in specs {
        let session = &sessions[spec.app];
        let plan = resolve(session, spec).map_err(|e| format!("{spec:?}: {e}"))?;
        let Some(plan) = plan else { continue };
        match warm {
            Warm::Plans => {}
            Warm::Checkpoints => {
                let sites = session
                    .sites(&plan.target, plan.class)
                    .map_err(|e| e.to_string())?;
                let fork = fork_step(&sites);
                if fork > 0 {
                    session.checkpoint_at(fork);
                }
            }
            Warm::Spmd => {
                session
                    .spmd_clean_state(plan.ranks)
                    .map_err(|e| e.to_string())?;
            }
        }
        plans.push((spec.clone(), plan));
    }
    Ok(Prepared { sessions, plans })
}
