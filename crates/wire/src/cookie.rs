//! RFC 7873 DNS cookies, carried as EDNS0 option 10.
//!
//! A cookie is a weak-but-cheap return-routability proof: the client picks
//! an 8-byte *client cookie*; the server answers with a *server cookie*
//! computed from the client cookie, the client's address, and a server
//! secret. A query carrying a full cookie that validates against the
//! secret can only come from a client that received a previous response —
//! i.e. its source address is not spoofed — which makes it safe to exempt
//! from response-rate limiting (the `IngressGate` hook in `dike-netsim`).
//!
//! The option rides inside the OPT pseudo-record's RDATA, which this
//! crate's codec treats as opaque bytes ([`crate::RData::Opt`]); this
//! module encodes and decodes the `{code, length, data}` TLV sequence
//! within those bytes, preserving any options it does not understand.

use crate::message::Message;
use crate::name::Name;
use crate::rdata::RData;
use crate::record::Record;
use crate::types::{RecordClass, RecordType};

/// EDNS option code for COOKIE (RFC 7873 §4).
pub const COOKIE_OPTION_CODE: u16 = 10;

/// Client cookie length (RFC 7873 §4: exactly 8 octets).
pub(crate) const CLIENT_COOKIE_LEN: usize = 8;

/// Server cookie length used by this implementation (RFC 7873 allows
/// 8–32; we always emit the minimum).
pub(crate) const SERVER_COOKIE_LEN: usize = 8;

/// A parsed DNS cookie: the client half, plus the server half when the
/// sender has one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cookie {
    /// The client's 8-byte nonce.
    pub client: [u8; CLIENT_COOKIE_LEN],
    /// The server cookie, when present (8–32 octets on the wire).
    pub server: Option<Vec<u8>>,
}

impl Cookie {
    /// A client-only cookie (first contact with a server).
    pub fn client_only(client: [u8; CLIENT_COOKIE_LEN]) -> Cookie {
        Cookie {
            client,
            server: None,
        }
    }

    /// Whether this cookie carries a server half.
    pub fn is_full(&self) -> bool {
        self.server.is_some()
    }

    /// The option data bytes: client cookie, then server cookie if any.
    pub fn option_data(&self) -> Vec<u8> {
        let mut data = self.client.to_vec();
        if let Some(s) = &self.server {
            data.extend_from_slice(s);
        }
        data
    }

    /// Parses cookie option data (the bytes after the `{code, length}`
    /// TLV header). Returns `None` when the length is not a legal cookie
    /// (8 alone, or 8 plus 8–32 of server cookie).
    pub fn from_option_data(data: &[u8]) -> Option<Cookie> {
        if data.len() < CLIENT_COOKIE_LEN {
            return None;
        }
        let mut client = [0u8; CLIENT_COOKIE_LEN];
        client.copy_from_slice(&data[..CLIENT_COOKIE_LEN]);
        let rest = &data[CLIENT_COOKIE_LEN..];
        let server = match rest.len() {
            0 => None,
            8..=32 => Some(rest.to_vec()),
            _ => return None,
        };
        Some(Cookie { client, server })
    }
}

/// Derives a deterministic client cookie for a `(client, server)` address
/// pair, as RFC 7873 §6 recommends (one cookie per server, stable across
/// queries so the server half stays valid).
pub fn client_cookie_for(client_addr: u32, server_addr: u32) -> [u8; CLIENT_COOKIE_LEN] {
    mix64((((client_addr as u64) << 32) | server_addr as u64) ^ 0x0063_6f6f_6b69_6521).to_be_bytes()
}

/// Computes the server cookie for `client_cookie` as seen from
/// `src_addr`, under `secret`. Deterministic: the sim, the live server,
/// and the validating gate all agree given the same secret.
pub fn server_cookie(
    client_cookie: &[u8; CLIENT_COOKIE_LEN],
    src_addr: u32,
    secret: u64,
) -> [u8; SERVER_COOKIE_LEN] {
    let c = u64::from_be_bytes(*client_cookie);
    let mut h = secret ^ 0x9e37_79b9_7f4a_7c15;
    h = mix64(h ^ c);
    h = mix64(h ^ src_addr as u64);
    h.to_be_bytes()
}

/// Whether `cookie` is a valid full cookie for `src_addr` under
/// `secret` — i.e. its server half matches [`server_cookie`].
pub fn validate(cookie: &Cookie, src_addr: u32, secret: u64) -> bool {
    match &cookie.server {
        Some(s) => s.as_slice() == server_cookie(&cookie.client, src_addr, secret),
        None => false,
    }
}

/// splitmix64 finalizer: cheap, deterministic, good avalanche. Not
/// cryptographic — the sim models the protocol mechanics, not the MAC.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Iterates the `{code, length, data}` TLVs inside OPT option bytes.
/// Malformed trailing bytes terminate the walk silently (liberal in what
/// we accept: the rest of the options are still usable).
fn options(raw: &[u8]) -> impl Iterator<Item = (u16, &[u8])> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        if raw.len() < off + 4 {
            return None;
        }
        let code = u16::from_be_bytes([raw[off], raw[off + 1]]);
        let len = u16::from_be_bytes([raw[off + 2], raw[off + 3]]) as usize;
        if raw.len() < off + 4 + len {
            return None;
        }
        let data = &raw[off + 4..off + 4 + len];
        off += 4 + len;
        Some((code, data))
    })
}

/// Appends one `{code, length, data}` TLV to `out`.
fn push_option(out: &mut Vec<u8>, code: u16, data: &[u8]) {
    out.extend_from_slice(&code.to_be_bytes());
    out.extend_from_slice(&(data.len() as u16).to_be_bytes());
    out.extend_from_slice(data);
}

/// The OPT additional of `msg`, if any.
fn opt_record(msg: &Message) -> Option<&Record> {
    msg.additionals
        .iter()
        .find(|r| r.rtype() == RecordType::OPT)
}

/// Extracts the DNS cookie from `msg`'s OPT additional, if present and
/// well-formed.
pub fn cookie_of(msg: &Message) -> Option<Cookie> {
    let rec = opt_record(msg)?;
    let RData::Opt(raw) = &rec.rdata else {
        return None;
    };
    options(raw)
        .find(|(code, _)| *code == COOKIE_OPTION_CODE)
        .and_then(|(_, data)| Cookie::from_option_data(data))
}

/// Sets (or replaces) the cookie option in `msg`'s OPT additional,
/// preserving any other options. When `msg` has no OPT record, one is
/// appended advertising `payload_size`.
pub fn set_cookie(msg: &mut Message, payload_size: u16, cookie: &Cookie) {
    let rec = match msg
        .additionals
        .iter_mut()
        .find(|r| r.rtype() == RecordType::OPT)
    {
        Some(rec) => rec,
        None => {
            msg.additionals.push(Record {
                name: Name::root(),
                class: RecordClass::Unknown(payload_size),
                ttl: 0,
                rdata: RData::Opt(Vec::new()),
            });
            msg.additionals.last_mut().expect("just pushed")
        }
    };
    let RData::Opt(raw) = &mut rec.rdata else {
        unreachable!("OPT record carries RData::Opt");
    };
    let mut out = Vec::with_capacity(raw.len() + 4 + CLIENT_COOKIE_LEN + SERVER_COOKIE_LEN);
    for (code, data) in options(raw) {
        if code != COOKIE_OPTION_CODE {
            push_option(&mut out, code, data);
        }
    }
    push_option(&mut out, COOKIE_OPTION_CODE, &cookie.option_data());
    *raw = out;
}

/// Completes the cookie handshake in `resp`, a server's response to
/// `query` from `src_addr`: when `query` carries a client cookie, `resp`
/// gets the full cookie, its server half minted under `secret` (via
/// [`set_cookie`], advertising the query's EDNS size or 512). A no-op
/// when `query` carries no cookie.
pub fn complete(resp: &mut Message, query: &Message, src_addr: u32, secret: u64) {
    let Some(c) = cookie_of(query) else {
        return;
    };
    let full = Cookie {
        client: c.client,
        server: Some(server_cookie(&c.client, src_addr, secret).to_vec()),
    };
    let size = query
        .edns_payload_size()
        .unwrap_or(crate::MAX_UDP_PAYLOAD as u16);
    set_cookie(resp, size, &full);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Rcode;

    fn query() -> Message {
        Message::query(
            0x1414,
            Name::parse("1414.cachetest.nl").unwrap(),
            RecordType::AAAA,
        )
    }

    #[test]
    fn roundtrips_client_only_cookie() {
        let mut q = query().with_edns(1232);
        let c = Cookie::client_only(*b"clientck");
        set_cookie(&mut q, 1232, &c);
        assert_eq!(cookie_of(&q), Some(c));
        assert_eq!(q.edns_payload_size(), Some(1232));
    }

    #[test]
    fn roundtrips_full_cookie_through_the_codec() {
        let mut q = query().with_edns(1232);
        let client = client_cookie_for(0x0a00_0005, 0x0a00_0003);
        let server = server_cookie(&client, 0x0a00_0005, 77).to_vec();
        let c = Cookie {
            client,
            server: Some(server),
        };
        set_cookie(&mut q, 1232, &c);
        let bytes = crate::codec::encode(&q).unwrap();
        let back = crate::codec::decode(&bytes).unwrap();
        assert_eq!(cookie_of(&back), Some(c));
    }

    #[test]
    fn set_cookie_creates_opt_when_missing_and_replaces_in_place() {
        let mut q = query();
        assert!(cookie_of(&q).is_none());
        set_cookie(&mut q, 512, &Cookie::client_only([1; 8]));
        assert_eq!(q.edns_payload_size(), Some(512));
        set_cookie(&mut q, 512, &Cookie::client_only([2; 8]));
        assert_eq!(
            q.additionals.len(),
            1,
            "replacing the cookie must not grow the OPT"
        );
        assert_eq!(cookie_of(&q).unwrap().client, [2; 8]);
    }

    #[test]
    fn preserves_foreign_options() {
        let mut q = query().with_edns(1232);
        // Hand-place an unknown option (code 42) before the cookie.
        if let RData::Opt(raw) = &mut q
            .additionals
            .iter_mut()
            .find(|r| r.rtype() == RecordType::OPT)
            .unwrap()
            .rdata
        {
            push_option(raw, 42, b"keepme");
        }
        set_cookie(&mut q, 1232, &Cookie::client_only([3; 8]));
        let rec = opt_record(&q).unwrap();
        let RData::Opt(raw) = &rec.rdata else {
            panic!()
        };
        let opts: Vec<(u16, Vec<u8>)> = options(raw).map(|(c, d)| (c, d.to_vec())).collect();
        assert_eq!(opts.len(), 2);
        assert_eq!(opts[0], (42, b"keepme".to_vec()));
        assert_eq!(opts[1].0, COOKIE_OPTION_CODE);
    }

    #[test]
    fn validation_is_address_and_secret_bound() {
        let client = client_cookie_for(0x0a00_0009, 0x0a00_0003);
        let full = Cookie {
            client,
            server: Some(server_cookie(&client, 0x0a00_0009, 1234).to_vec()),
        };
        assert!(validate(&full, 0x0a00_0009, 1234));
        assert!(!validate(&full, 0x0a00_000a, 1234), "address-bound");
        assert!(!validate(&full, 0x0a00_0009, 1235), "secret-bound");
        assert!(!validate(&Cookie::client_only(client), 0x0a00_0009, 1234));
    }

    #[test]
    fn malformed_option_data_is_rejected() {
        assert!(Cookie::from_option_data(&[0; 7]).is_none(), "short client");
        assert!(Cookie::from_option_data(&[0; 12]).is_none(), "short server");
        assert!(Cookie::from_option_data(&[0; 41]).is_none(), "long server");
        assert!(Cookie::from_option_data(&[0; 8]).is_some());
        assert!(Cookie::from_option_data(&[0; 16]).is_some());
        assert!(Cookie::from_option_data(&[0; 40]).is_some());
    }

    #[test]
    fn cookies_survive_response_building() {
        // The slip path builds a response and copies the client's OPT;
        // make sure a response message can carry the same cookie.
        let mut q = query().with_edns(1232);
        set_cookie(&mut q, 1232, &Cookie::client_only([9; 8]));
        let mut resp = Message::response_to(&q);
        resp.rcode = Rcode::NoError;
        resp.additionals = q.additionals.clone();
        assert_eq!(cookie_of(&resp), cookie_of(&q));
    }
}
