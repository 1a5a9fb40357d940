//! The paper's §8 "Implications" as a controlled experiment: why the
//! DNS root shrugged off its Nov 2015 DDoS while Dyn's customers went
//! dark in Oct 2016.
//!
//! ```text
//! cargo run --release --example anycast_root
//! ```
//!
//! Builds a zone served by two nameservers, each an IP-anycast VIP over
//! four sites, then kills sites out from under it while clients keep
//! querying through recursive resolvers.

use dike::experiments::implications::{run_implications, ImplicationsConfig};

/// A share as a percentage; `-` for a window that saw no query.
fn pct(share: Option<f64>) -> String {
    share.map_or_else(|| "-".into(), dike::stats::table::pct)
}

fn main() {
    println!("2 nameservers x 4 anycast sites each; 60-minute total-site failures\n");
    println!(
        "{:>8} {:>16} {:>12} {:>18}",
        "TTL", "sites attacked", "OK before", "OK during attack"
    );
    for ttl in [120u32, 1800, 86_400] {
        for attacked in [2usize, 4, 6, 8] {
            let r = run_implications(&ImplicationsConfig {
                ns_count: 2,
                sites_per_ns: 4,
                sites_attacked: attacked,
                ttl,
                concentrated: false,
                n_probes: 90,
                seed: 42,
            });
            println!(
                "{:>8} {:>13}/8 {:>12} {:>18}",
                ttl,
                attacked,
                pct(r.ok_before_attack),
                pct(r.ok_during_attack)
            );
        }
        println!();
    }
    println!("the root story: day-long TTLs ride out any partial-site failure;");
    println!("the Dyn story: 120 s CDN TTLs collapse once every site is under fire.");

    // §8's other claim: a service is as strong as its strongest
    // nameserver. Concentrate the same number of victims on one NS and
    // the other carries everyone, even with short TTLs.
    let concentrated = run_implications(&ImplicationsConfig {
        ns_count: 2,
        sites_per_ns: 2,
        sites_attacked: 2,
        ttl: 300,
        concentrated: true,
        n_probes: 90,
        seed: 42,
    });
    let spread = run_implications(&ImplicationsConfig {
        ns_count: 2,
        sites_per_ns: 2,
        sites_attacked: 2,
        ttl: 300,
        concentrated: false,
        n_probes: 90,
        seed: 42,
    });
    println!(
        "\nsame 2 dead sites, short TTL: one whole NS down -> {} served;\n\
         one site of each NS down -> {} served (double-dead catchments strand).",
        pct(concentrated.ok_during_attack),
        pct(spread.ok_during_attack)
    );
}
