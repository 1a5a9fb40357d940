//! The paper's Appendix C: the list of public resolver addresses used to
//! classify `AC` answers (Table 3), obtained from a DuckDuckGo search for
//! "public dns" on 2018-01-15.
//!
//! The simulator assigns its own addresses, so this list is not used for
//! routing — it is kept as the paper's artifact, and
//! [`operator_of`] reimplements the paper's classification step for
//! anyone replaying real traces against this library.

/// `(address, operator)` pairs from the paper's Appendix C (IPv4 subset —
/// the experiments are IPv4-only).
pub const PUBLIC_RESOLVERS_V4: &[(&str, &str)] = &[
    ("198.101.242.72", "Alternate DNS"),
    ("23.253.163.53", "Alternate DNS"),
    ("205.204.88.60", "BlockAid Public DNS"),
    ("178.21.23.150", "BlockAid Public DNS"),
    ("91.239.100.100", "Censurfridns"),
    ("89.233.43.71", "Censurfridns"),
    ("213.73.91.35", "Chaos Computer Club Berlin"),
    ("209.59.210.167", "Christoph Hochstaetter"),
    ("85.214.117.11", "Christoph Hochstaetter"),
    ("212.82.225.7", "ClaraNet"),
    ("212.82.226.212", "ClaraNet"),
    ("8.26.56.26", "Comodo Secure DNS"),
    ("8.20.247.20", "Comodo Secure DNS"),
    ("84.200.69.80", "DNS.Watch"),
    ("84.200.70.40", "DNS.Watch"),
    ("104.236.210.29", "DNSReactor"),
    ("45.55.155.25", "DNSReactor"),
    ("216.146.35.35", "Dyn"),
    ("216.146.36.36", "Dyn"),
    ("80.67.169.12", "FDN"),
    ("85.214.73.63", "FoeBud"),
    ("87.118.111.215", "FoolDNS"),
    ("213.187.11.62", "FoolDNS"),
    ("37.235.1.174", "FreeDNS"),
    ("37.235.1.177", "FreeDNS"),
    ("80.80.80.80", "Freenom World"),
    ("80.80.81.81", "Freenom World"),
    ("87.118.100.175", "German Privacy Foundation e.V."),
    ("94.75.228.29", "German Privacy Foundation e.V."),
    ("85.25.251.254", "German Privacy Foundation e.V."),
    ("62.141.58.13", "German Privacy Foundation e.V."),
    ("8.8.8.8", "Google Public DNS"),
    ("8.8.4.4", "Google Public DNS"),
    ("81.218.119.11", "GreenTeamDNS"),
    ("209.88.198.133", "GreenTeamDNS"),
    ("74.82.42.42", "Hurricane Electric"),
    ("209.244.0.3", "Level3"),
    ("209.244.0.4", "Level3"),
    ("156.154.70.1", "Neustar DNS Advantage"),
    ("156.154.71.1", "Neustar DNS Advantage"),
    ("5.45.96.220", "New Nations"),
    ("185.82.22.133", "New Nations"),
    ("198.153.192.1", "Norton DNS"),
    ("198.153.194.1", "Norton DNS"),
    ("208.67.222.222", "OpenDNS"),
    ("208.67.220.220", "OpenDNS"),
    ("58.6.115.42", "OpenNIC"),
    ("58.6.115.43", "OpenNIC"),
    ("119.31.230.42", "OpenNIC"),
    ("200.252.98.162", "OpenNIC"),
    ("217.79.186.148", "OpenNIC"),
    ("81.89.98.6", "OpenNIC"),
    ("78.159.101.37", "OpenNIC"),
    ("203.167.220.153", "OpenNIC"),
    ("82.229.244.191", "OpenNIC"),
    ("216.87.84.211", "OpenNIC"),
    ("66.244.95.20", "OpenNIC"),
    ("207.192.69.155", "OpenNIC"),
    ("72.14.189.120", "OpenNIC"),
    ("194.145.226.26", "PowerNS"),
    ("77.220.232.44", "PowerNS"),
    ("9.9.9.9", "Quad9"),
    ("195.46.39.39", "SafeDNS"),
    ("195.46.39.40", "SafeDNS"),
    ("193.58.251.251", "SkyDNS"),
    ("208.76.50.50", "SmartViper Public DNS"),
    ("208.76.51.51", "SmartViper Public DNS"),
    ("78.46.89.147", "ValiDOM"),
    ("88.198.75.145", "ValiDOM"),
    ("64.6.64.6", "Verisign"),
    ("64.6.65.6", "Verisign"),
    ("77.109.148.136", "Xiala.net"),
    ("77.109.148.137", "Xiala.net"),
    ("77.88.8.88", "Yandex.DNS"),
    ("77.88.8.2", "Yandex.DNS"),
    ("109.69.8.51", "puntCAT"),
];

/// The paper's classification step: the operator behind a source address,
/// if it is on the Appendix C list.
pub fn operator_of(addr: std::net::Ipv4Addr) -> Option<&'static str> {
    let s = addr.to_string();
    PUBLIC_RESOLVERS_V4
        .iter()
        .find(|(ip, _)| *ip == s)
        .map(|(_, op)| *op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn list_parses_and_has_no_duplicates() {
        let mut seen = std::collections::HashSet::new();
        for (ip, op) in PUBLIC_RESOLVERS_V4 {
            let parsed: Ipv4Addr = ip.parse().unwrap_or_else(|_| panic!("bad ip {ip}"));
            assert!(seen.insert(parsed), "duplicate {ip}");
            assert!(!op.is_empty());
        }
        assert!(seen.len() > 70, "the appendix lists ~76 IPv4 resolvers");
    }

    #[test]
    fn known_operators_classify() {
        assert_eq!(
            operator_of(Ipv4Addr::new(8, 8, 8, 8)),
            Some("Google Public DNS")
        );
        assert_eq!(
            operator_of(Ipv4Addr::new(8, 8, 4, 4)),
            Some("Google Public DNS")
        );
        assert_eq!(operator_of(Ipv4Addr::new(9, 9, 9, 9)), Some("Quad9"));
        assert_eq!(operator_of(Ipv4Addr::new(192, 0, 2, 1)), None);
    }
}
