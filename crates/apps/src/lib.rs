//! # fisec-apps — the study's target applications and scripted clients
//!
//! Mini-C reimplementations of the paper's two targets:
//!
//! * [`ftpd`] — a wu-ftpd-2.6.0-like FTP control-connection server whose
//!   authentication is the `user()`/`pass()` pair (paper §3.2/§5.2);
//! * [`sshd`] — an ssh-1.2.30-like server whose authentication is
//!   `do_authentication()`/`auth_rhosts()`/`auth_password()`
//!   (paper §3.3/§5.3), including the Figure 3 `packet_read`.
//!
//! Each target ships with its scripted clients (FTP Clients 1–4, SSH
//! Clients 1–2) and an [`AppSpec`] bundling image, auth-function names and
//! client set for the experiment layer.

pub mod clients;
pub mod ftpd;
pub mod sshd;

pub use ftpd::{build_ftpd, FtpClient, FtpPattern, FTPD_AUTH_FUNCS, FTPD_SRC};
pub use sshd::{
    build_sshd, build_sshd_single_entry, SshClient, SshPattern, SSHD_AUTH_FUNCS, SSHD_SRC,
};

use fisec_asm::Image;
use fisec_net::ClientDriver;

/// A client access pattern: a name, a factory, and whether the golden run
/// denies it (attack patterns can produce BRK outcomes).
pub struct ClientSpec {
    /// Paper-style name ("Client1"...).
    pub name: String,
    /// Whether the error-free run denies this client.
    pub golden_denied: bool,
    /// Content identity of the scripted behavior (see
    /// `FtpPattern::script_fingerprint`): the campaign cache keys
    /// memoized results on it, so editing a client script invalidates
    /// its cached campaigns.
    pub fingerprint: String,
    factory: Box<dyn Fn() -> Box<dyn ClientDriver> + Send + Sync>,
}

impl std::fmt::Debug for ClientSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSpec")
            .field("name", &self.name)
            .field("golden_denied", &self.golden_denied)
            .finish()
    }
}

impl ClientSpec {
    /// Build a fresh client instance.
    pub fn make(&self) -> Box<dyn ClientDriver> {
        (self.factory)()
    }
}

/// A target application bundled for the experiment layer.
#[derive(Debug)]
pub struct AppSpec {
    /// "ftpd" or "sshd".
    pub name: &'static str,
    /// Compiled image.
    pub image: Image,
    /// Names of the functions whose branch instructions get injected.
    pub auth_funcs: Vec<&'static str>,
    /// Scripted clients in paper order.
    pub clients: Vec<ClientSpec>,
}

impl AppSpec {
    /// The ftpd target with its four clients.
    ///
    /// # Panics
    /// Panics if the embedded server source fails to build (covered by
    /// tests; a build failure is a bug, not an input condition).
    pub fn ftpd() -> AppSpec {
        let image = build_ftpd().expect("embedded ftpd source builds");
        let clients = FtpPattern::ALL
            .iter()
            .map(|p| {
                let p = *p;
                ClientSpec {
                    name: p.name().to_string(),
                    golden_denied: p.golden_denied(),
                    fingerprint: p.script_fingerprint(),
                    factory: Box::new(move || FtpClient::boxed(p)),
                }
            })
            .collect();
        AppSpec {
            name: "ftpd",
            image,
            auth_funcs: FTPD_AUTH_FUNCS.to_vec(),
            clients,
        }
    }

    /// The sshd target with its two clients.
    ///
    /// # Panics
    /// Panics if the embedded server source fails to build.
    pub fn sshd() -> AppSpec {
        Self::sshd_with(build_sshd().expect("embedded sshd source builds"), "sshd")
    }

    /// The §5.3 ablation variant: identical sshd text with only password
    /// authentication enabled (single point of entry).
    ///
    /// # Panics
    /// Panics if the embedded server source fails to build.
    pub fn sshd_single_entry() -> AppSpec {
        Self::sshd_with(
            sshd::build_sshd_single_entry().expect("embedded sshd source builds"),
            "sshd-single-entry",
        )
    }

    /// The bundled app recorded under `name` in trace headers and store
    /// files: `ftpd`, `sshd` or `sshd-single-entry`.
    pub fn by_name(name: &str) -> Option<AppSpec> {
        match name {
            "ftpd" => Some(AppSpec::ftpd()),
            "sshd" => Some(AppSpec::sshd()),
            "sshd-single-entry" => Some(AppSpec::sshd_single_entry()),
            _ => None,
        }
    }

    fn sshd_with(image: Image, name: &'static str) -> AppSpec {
        let clients = SshPattern::ALL
            .iter()
            .map(|p| {
                let p = *p;
                ClientSpec {
                    name: p.name().to_string(),
                    golden_denied: p.golden_denied(),
                    fingerprint: p.script_fingerprint(),
                    factory: Box::new(move || SshClient::boxed(p)),
                }
            })
            .collect();
        AppSpec {
            name,
            image,
            auth_funcs: SSHD_AUTH_FUNCS.to_vec(),
            clients,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_specs_build() {
        let f = AppSpec::ftpd();
        assert_eq!(f.clients.len(), 4);
        assert_eq!(f.auth_funcs.len(), 2);
        assert!(f.clients[0].golden_denied); // Client1 attacks
        assert!(!f.clients[1].golden_denied);
        let s = AppSpec::sshd();
        assert_eq!(s.clients.len(), 2);
        assert_eq!(s.auth_funcs.len(), 3);
        assert!(s.clients[0].golden_denied);
    }

    #[test]
    fn client_fingerprints_are_distinct_and_nonempty() {
        let f = AppSpec::ftpd();
        let s = AppSpec::sshd();
        let mut all: Vec<&str> = f
            .clients
            .iter()
            .chain(&s.clients)
            .map(|c| c.fingerprint.as_str())
            .collect();
        assert!(all.iter().all(|fp| !fp.is_empty()));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "two clients share a script fingerprint");
    }

    #[test]
    fn client_factories_produce_fresh_clients() {
        let f = AppSpec::ftpd();
        let c1 = f.clients[0].make();
        let c2 = f.clients[0].make();
        assert_eq!(c1.status(), fisec_net::ClientStatus::InProgress);
        assert_eq!(c2.status(), fisec_net::ClientStatus::InProgress);
    }
}
