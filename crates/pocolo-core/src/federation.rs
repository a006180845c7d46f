//! Federation state types shared by the wire protocol and the
//! federation tier.
//!
//! The geo-federated control plane (crate `pocolo-federation`) follows
//! the same decide/actuate split as the per-server controller: a pure
//! `RegionController` consumes a [`FederationInput`] snapshot and emits
//! a [`FederationDecision`] — per-region power-budget splits plus scored
//! whole-application migration intents. Decisions are committed to a
//! versioned replicated log ([`FedLogEntry`]) whose compaction point is
//! a [`FedSnapshot`]; both travel over the `pocolo-net` wire protocol,
//! which is why the types (and their JSON codecs) live here rather than
//! in the federation crate — `pocolo-net` must encode them without
//! depending on the federation tier.
//!
//! The five types that travel declare their JSON once each, with
//! [`pocolo_json::impl_json!`]; the status snapshots never leave the
//! process and have no codec.

/// One region's slice of the federation telemetry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStatus {
    /// Region index.
    pub region: usize,
    /// Current wholesale power price (relative units; 1.0 = nominal).
    pub power_price: f64,
    /// Grid derate in effect: 1.0 = healthy, < 1 during a regional
    /// brownout.
    pub cap_factor: f64,
    /// Provisioned grid feed, watts, before the derate.
    pub grid_w: f64,
    /// Server slots the region owns.
    pub slots: usize,
    /// Summed draw of the applications currently resident and serving.
    pub resident_power_w: f64,
}

impl RegionStatus {
    /// Power the grid will actually deliver right now.
    pub fn available_w(&self) -> f64 {
        self.grid_w * self.cap_factor
    }
}

/// One best-effort application's slice of the federation snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct AppStatus {
    /// Application id (stable across migrations).
    pub app: usize,
    /// Region the application is currently resident in.
    pub region: usize,
    /// Whole-application draw when serving, watts.
    pub power_w: f64,
    /// Utility rate per region — the application's throughput value if
    /// it were resident there (interference/affinity-aware scoring).
    pub rates: Vec<f64>,
    /// True while the application is mid-migration (draining or warming)
    /// and must not be moved again.
    pub migrating: bool,
}

/// The full telemetry snapshot a `RegionController` decides from: the
/// federation-wide contracted power plus every region's and every
/// application's current state.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationInput {
    /// Virtual tick the snapshot was taken at.
    pub tick: u64,
    /// Total power the federation has contracted across all regions,
    /// watts. Typically less than the summed grid feeds — the whole
    /// point of splitting it adaptively.
    pub contracted_w: f64,
    /// Per-region status, indexed by region id.
    pub regions: Vec<RegionStatus>,
    /// Per-application status, indexed by app id.
    pub apps: Vec<AppStatus>,
}

/// One scored whole-application migration the controller wants.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationIntent {
    /// Application to move.
    pub app: usize,
    /// Source region.
    pub from: usize,
    /// Destination region.
    pub to: usize,
    /// Expected per-tick score gain that justified the move (already net
    /// of the hysteresis threshold).
    pub gain: f64,
}

pocolo_json::impl_json!(MigrationIntent {
    app,
    from,
    to,
    gain
});

/// What the federation controller decided at one epoch: how the
/// contracted power splits across regions, and which applications move.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationDecision {
    /// Tick the decision was made at.
    pub tick: u64,
    /// Power budget granted to each region, watts, indexed by region id.
    /// Always `split[r] <= grid_w[r] * cap_factor[r]` and
    /// `sum(split) <= contracted_w`.
    pub budget_w: Vec<f64>,
    /// Migrations to start this epoch, highest gain first.
    pub migrations: Vec<MigrationIntent>,
}

pocolo_json::impl_json!(FederationDecision {
    tick,
    budget_w,
    migrations
});

/// One committed entry of the replicated federation log.
#[derive(Debug, Clone, PartialEq)]
pub struct FedLogEntry {
    /// Monotonic log version (1-based; version 0 is the empty state).
    pub version: u64,
    /// The decision committed at this version.
    pub decision: FederationDecision,
}

pocolo_json::impl_json!(FedLogEntry { version, decision });

/// An in-flight migration as recorded in replicated state: the
/// application already belongs to `to`, but serves nothing until
/// `until_tick` (drain + warm-start downtime).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Application in flight.
    pub app: usize,
    /// Destination region.
    pub to: usize,
    /// First tick the application serves from the destination.
    pub until_tick: u64,
}

pocolo_json::impl_json!(MigrationRecord {
    app,
    to,
    until_tick
});

/// A versioned snapshot of the replicated federation state — the log's
/// compaction point. A follower that is too far behind receives a
/// snapshot plus the suffix of the log instead of the full history.
#[derive(Debug, Clone, PartialEq)]
pub struct FedSnapshot {
    /// Log version the snapshot reflects.
    pub version: u64,
    /// Tick of the last applied decision.
    pub tick: u64,
    /// Region each application is resident in, indexed by app id.
    pub app_region: Vec<usize>,
    /// Current per-region budget split, watts.
    pub budget_w: Vec<f64>,
    /// Migrations still in flight, ascending by app id.
    pub migrating: Vec<MigrationRecord>,
}

pocolo_json::impl_json!(FedSnapshot {
    version,
    tick,
    app_region,
    budget_w,
    migrating
});

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_json::{FromJson, ToJson};

    fn decision() -> FederationDecision {
        FederationDecision {
            tick: 40,
            budget_w: vec![480.0, 360.5, 512.25],
            migrations: vec![MigrationIntent {
                app: 7,
                from: 1,
                to: 2,
                gain: 0.375,
            }],
        }
    }

    #[test]
    fn decision_round_trips() {
        let d = decision();
        assert_eq!(FederationDecision::from_json(&d.to_json()).unwrap(), d);
    }

    #[test]
    fn log_entry_round_trips() {
        let e = FedLogEntry {
            version: 9,
            decision: decision(),
        };
        assert_eq!(FedLogEntry::from_json(&e.to_json()).unwrap(), e);
        // A decision-log line from `demo-federation --faults region-chaos:5`,
        // pinned byte for byte.
        let line = r#"{"version":1,"decision":{"tick":0,"budget_w":[537.5694807919378,1050.7205182856596,561.0900742413279],"migrations":[{"app":15,"from":0,"to":1,"gain":0.5155346097243917},{"app":8,"from":2,"to":1,"gain":0.2997573116861705},{"app":10,"from":1,"to":0,"gain":0.1430347829710983},{"app":7,"from":1,"to":0,"gain":0.1251065504086332}]}}"#;
        let entry: FedLogEntry = pocolo_json::typed_from_str(line).unwrap();
        assert_eq!(entry.decision.migrations[1].app, 8);
        assert_eq!(entry.to_json().to_compact_string(), line);
    }

    #[test]
    fn snapshot_round_trips() {
        let s = FedSnapshot {
            version: 12,
            tick: 120,
            app_region: vec![0, 2, 1, 1],
            budget_w: vec![500.0, 250.0, 250.0],
            migrating: vec![MigrationRecord {
                app: 2,
                to: 1,
                until_tick: 124,
            }],
        };
        assert_eq!(FedSnapshot::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn malformed_fields_report_their_key() {
        let bad = r#"{"version":1,"tick":"later","app_region":[],"budget_w":[],"migrating":[]}"#;
        let err = pocolo_json::typed_from_str::<FedSnapshot>(bad).unwrap_err();
        assert_eq!(
            err.to_string(),
            "tick: expected an integer in [0, 2^53), found a string"
        );
    }

    #[test]
    fn region_available_w_applies_the_derate() {
        let r = RegionStatus {
            region: 3,
            power_price: 1.25,
            cap_factor: 0.6,
            grid_w: 900.0,
            slots: 8,
            resident_power_w: 512.0,
        };
        assert!((r.available_w() - 540.0).abs() < 1e-12);
    }
}
