//! Both engines reject a `NetworkConfig` they cannot simulate with a
//! typed error, before any simulation state is built. Each case below
//! used to misbehave silently: one VC let dateline crossings index the
//! next link's buffers, a payload below one flit divided by zero, and a
//! zero-depth buffer spun until the cycle watchdog fired.

use mt_netsim::{
    cycle::CycleEngine, flow::FlowEngine, Engine, FaultPlan, NetworkConfig, NoopObserver,
    SimScratch,
};
use mt_topology::Topology;
use multitree::algorithms::{AllReduce, MultiTree};
use multitree::{AlgorithmError, PreparedSchedule};

/// Runs `cfg` on every entry point of both engines and returns the
/// errors, which must all be `InvalidConfig` naming `field`.
fn assert_rejected(cfg: NetworkConfig, field: &str) {
    let topo = Topology::torus(4, 4);
    let s = MultiTree::default().build(&topo).unwrap();
    let prep = PreparedSchedule::new(&s, &topo).unwrap();
    let mut scratch = SimScratch::new();
    // a small watchdog keeps a regression from spinning for 200M cycles
    let cycle = CycleEngine::new(cfg).with_max_cycles(200_000);
    let flow = FlowEngine::new(cfg);
    let plan = FaultPlan::new();
    let errors = [
        cycle.run(&topo, &s, 64 << 10).map(drop),
        cycle
            .run_prepared_with(&prep, 64 << 10, &mut scratch, &mut NoopObserver)
            .map(drop),
        cycle
            .run_prepared_batch_with(&prep, &[64 << 10], &mut scratch, &mut NoopObserver)
            .map(drop),
        cycle
            .run_prepared_faulted_with(&prep, 64 << 10, &mut scratch, &plan, &mut NoopObserver)
            .map(drop),
        flow.run(&topo, &s, 64 << 10).map(drop),
        flow.run_prepared_with(&prep, 64 << 10, &mut scratch, &mut NoopObserver)
            .map(drop),
        flow.run_prepared_batch_with(&prep, &[64 << 10], &mut scratch, &mut NoopObserver)
            .map(drop),
        flow.run_prepared_faulted_with(&prep, 64 << 10, &mut scratch, &plan, &mut NoopObserver)
            .map(drop),
    ];
    for (i, r) in errors.into_iter().enumerate() {
        match r {
            Err(AlgorithmError::InvalidConfig { detail }) => {
                assert!(
                    detail.contains(field),
                    "entry point {i}: {detail:?} lacks {field}"
                );
            }
            other => panic!("entry point {i} accepted a bad {field}: {other:?}"),
        }
    }
}

#[test]
fn one_virtual_channel_is_rejected() {
    // a dateline crossing escapes to VC `base | 1`, which needs a pair
    let cfg = NetworkConfig {
        num_vcs: 1,
        ..NetworkConfig::paper_default()
    };
    assert_rejected(cfg, "num_vcs");
}

#[test]
fn more_virtual_channels_than_the_eject_mask_holds_are_rejected() {
    let cfg = NetworkConfig {
        num_vcs: NetworkConfig::MAX_VCS + 1,
        ..NetworkConfig::paper_default()
    };
    assert_rejected(cfg, "num_vcs");
}

#[test]
fn payload_below_one_flit_is_rejected() {
    let cfg = NetworkConfig {
        payload_bytes: 8,
        ..NetworkConfig::paper_default()
    };
    assert_rejected(cfg, "payload_bytes");
}

#[test]
fn zero_flit_size_is_rejected() {
    let cfg = NetworkConfig {
        flit_bytes: 0,
        ..NetworkConfig::paper_default()
    };
    assert_rejected(cfg, "flit_bytes");
}

#[test]
fn zero_depth_buffers_are_rejected() {
    let cfg = NetworkConfig {
        vc_buffer_flits: 0,
        ..NetworkConfig::paper_default()
    };
    assert_rejected(cfg, "vc_buffer_flits");
}

#[test]
fn non_positive_rates_are_rejected() {
    for (cfg, field) in [
        (
            NetworkConfig {
                link_bandwidth: 0.0,
                ..NetworkConfig::paper_default()
            },
            "link_bandwidth",
        ),
        (
            NetworkConfig {
                router_clock_ghz: f64::NAN,
                ..NetworkConfig::paper_default()
            },
            "router_clock_ghz",
        ),
    ] {
        assert_rejected(cfg, field);
    }
}

#[test]
fn the_paper_configurations_and_the_vc_bounds_are_accepted() {
    let topo = Topology::torus(4, 4);
    let s = MultiTree::default().build(&topo).unwrap();
    for num_vcs in [2, 3, NetworkConfig::MAX_VCS] {
        let cfg = NetworkConfig {
            num_vcs,
            ..NetworkConfig::paper_default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        CycleEngine::new(cfg).run(&topo, &s, 4 << 10).unwrap();
    }
    assert_eq!(NetworkConfig::paper_message_based().validate(), Ok(()));
}
