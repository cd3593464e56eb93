//! The referee (reference-node) mechanism of §3.4: honest members get
//! their bandwidth-time products verified; cheaters claiming inflated
//! bandwidths or ages are caught; referee crashes are survived and
//! repaired.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example referee_audit
//! ```

use rom::overlay::NodeId;
use rom::rost::{Btp, RefereeRegistry, Verification};
use rom::sim::SimTime;
use std::collections::HashSet;

fn show(name: &str, v: Verification) {
    match v {
        Verification::Confirmed { witnessed } => {
            println!("  {name}: CONFIRMED (referees vouch for {witnessed:.1})");
        }
        Verification::Rejected { witnessed } => {
            println!("  {name}: REJECTED (referees only vouch for {witnessed:.1})");
        }
        Verification::Unverifiable => println!("  {name}: UNVERIFIABLE (no live referee)"),
    }
}

fn main() {
    // r_age = r_bw = 2 referees per member, 5-second heartbeats.
    let mut registry = RefereeRegistry::new();
    let mut dead: HashSet<NodeId> = HashSet::new();

    // An honest member joins at t=100 s. Its PARENT appoints the age
    // referees (the member cannot pick its own — collusion), and the
    // measurer set streams test data to gauge its real outbound bandwidth.
    let honest = NodeId(10);
    registry
        .register_join(honest, SimTime::from_secs(100.0), &[NodeId(1), NodeId(2)])
        .unwrap();
    let aggregate = registry
        .record_bandwidth(honest, &[1.2, 0.9, 0.9], &[NodeId(3), NodeId(4)])
        .unwrap();
    println!("honest member n10 joins; measured bandwidth {aggregate:.1} streams\n");

    let now = SimTime::from_secs(1_000.0);
    let live = |n: NodeId| !dead.contains(&n);

    println!("honest claims at t=1000s (age 900s, bandwidth 3.0):");
    show("age 900", registry.verify_age(honest, 900.0, now, live));
    show(
        "bandwidth 3.0",
        registry.verify_bandwidth(honest, 3.0, live),
    );

    // A cheater reports ten times its real resources to climb the tree.
    println!("\ncheating claims (age 9000s, bandwidth 30):");
    show("age 9000", registry.verify_age(honest, 9_000.0, now, live));
    show(
        "bandwidth 30",
        registry.verify_bandwidth(honest, 30.0, live),
    );

    // What an honest peer computes instead of trusting self-reports: the
    // witnessed BTP.
    let witnessed = registry.witnessed_btp(honest, now, live).unwrap();
    println!(
        "\nwitnessed BTP at t=1000s: {witnessed} (true value {})",
        Btp::new(3.0 * 900.0)
    );

    // Referee n1 crashes. Verification still succeeds through the second
    // referee (r_age > 1 is exactly for this), and the parent assigns a
    // replacement that synchronizes from the survivor.
    let mut dead_one = dead.clone();
    dead_one.insert(NodeId(1));
    let live_one = |n: NodeId| !dead_one.contains(&n);
    println!("\nreferee n1 crashes:");
    show("age 900", registry.verify_age(honest, 900.0, now, live_one));
    registry
        .replace_age_referee(honest, NodeId(1), NodeId(7))
        .unwrap();
    println!(
        "  replacement assigned; age referees are now {:?}",
        registry.age_referees_of(honest)
    );

    // If every referee disappears, claims become unverifiable — the
    // protocol treats such members as newcomers rather than trusting them.
    dead.extend([NodeId(2), NodeId(7)]);
    let live_none = |n: NodeId| !dead.contains(&n);
    println!("\nall age referees gone:");
    show(
        "age 900",
        registry.verify_age(honest, 900.0, now, live_none),
    );
}
