//! The sshd-like target application (ssh-1.2.30 analogue).
//!
//! Authentication lives in `do_authentication`, `auth_rhosts` and
//! `auth_password` — the three functions the paper injected. The
//! `do_authentication` loop reproduces the structure of the paper's
//! Figure 2: `if (auth_rhosts(...)) { authenticated = 1; break; }`, with
//! multiple entry points (none/rhosts/password) into the authenticated
//! state. `packet_read` reproduces Figure 3's `read(conn, buf, 8192)`
//! with the `push $0x2000` immediate.

use crate::clients::LineBuf;
use fisec_asm::Image;
use fisec_cc::{build_image, BuildError};
use fisec_net::{ClientDriver, ClientStatus};

/// The functions the paper injects for sshd.
pub const SSHD_AUTH_FUNCS: [&str; 3] = ["do_authentication", "auth_rhosts", "auth_password"];

/// mini-C source of the server.
pub const SSHD_SRC: &str = r#"
/* fisec sshd: an ssh-1.2.30-like authentication front end. */

char version_banner[] = "SSH-1.99-fisec_sshd_1.2.30\r\n";

char acct0_name[] = "alice";
char acct0_pass[] = "wonderland";
char acct1_name[] = "bob";
char acct1_pass[] = "builder";

/* .rhosts: operator@gateway.trusted.net may log in without a password */
char trusted_host[] = "gateway.trusted.net";
char rhosts_user[] = "operator";

/* authorized RSA key fingerprints (user:fingerprint) */
char rsa_user0[] = "operator";
char rsa_key0[] = "fp:9a31c04d";

/* config flags: optional mechanisms compiled in but disabled here */
int enable_kerberos;
int permit_empty_passwords;

/* mechanism switches (sshd_config-style); the entry-points ablation
   zeroes all but password auth in the data segment */
int cfg_auth_none = 1;
int cfg_auth_rhosts = 1;
int cfg_auth_rsa = 1;

char user_name[64];
int user_valid;
char expected_hash[24];
char audit_buf[128];

int read_line(char *buf, int max) {
    int n;
    int i;
    char c[4];
    i = 0;
    while (i < max) {
        n = read(0, c, 1);
        if (n <= 0) {
            return -1;
        }
        if (c[0] == '\n') {
            break;
        }
        if (c[0] != '\r') {
            buf[i] = c[0];
            i++;
        }
    }
    buf[i] = 0;
    return i;
}

/* packet_read(): the paper's Figure 3 — reads into an 8192-byte stack
   buffer; the 0x2000 immediate is pushed as the read length. */
int packet_read(char *out, int outmax) {
    char buf[8192];
    int n;
    int i;
    n = read(0, buf, 8192);
    if (n <= 0) {
        return -1;
    }
    i = 0;
    while (i < n && i < outmax - 1 && buf[i] != '\n') {
        if (buf[i] != '\r') {
            out[i] = buf[i];
        }
        i++;
    }
    /* strip a trailing CR kept by the copy above */
    if (i > 0 && out[i - 1] == '\r') {
        i--;
    }
    out[i] = 0;
    return i;
}

char *lookup_password(char *name) {
    if (strcmp(name, acct0_name) == 0) {
        return acct0_pass;
    }
    if (strcmp(name, acct1_name) == 0) {
        return acct1_pass;
    }
    return 0;
}

void setup_user(char *name) {
    char *pw;
    user_valid = 0;
    strncpy_safe(user_name, name, 41);
    pw = lookup_password(name);
    if (pw) {
        crypt_hash(pw, expected_hash);
        user_valid = 1;
    } else {
        expected_hash[0] = '*';
        expected_hash[1] = 0;
    }
}

/* auth_rhosts(): paper injection target. Returns non-zero when the
   remote user is awarded access (Figure 2's callee). */
int auth_rhosts(char *host) {
    if (user_valid == 0) {
        return 0;
    }
    if (strcmp(host, trusted_host) != 0) {
        return 0;
    }
    if (strcmp(user_name, rhosts_user) != 0) {
        return 0;
    }
    return 1;
}

/* auth_rsa(): challenge-response against the authorized key table.
   Simplified: the client presents "keyowner fingerprint"; access needs a
   matching table row for the *current* user. */
int auth_rsa(char *cred) {
    char keyuser[32];
    int i;
    i = 0;
    while (cred[i] && cred[i] != ' ' && i < 31) {
        keyuser[i] = cred[i];
        i++;
    }
    keyuser[i] = 0;
    if (user_valid == 0) {
        return 0;
    }
    if (strcmp(keyuser, user_name) != 0) {
        return 0;
    }
    if (strcmp(user_name, rsa_user0) != 0) {
        return 0;
    }
    if (cred[i] != ' ') {
        return 0;
    }
    if (strcmp(cred + i + 1, rsa_key0) != 0) {
        return 0;
    }
    return 1;
}

/* auth_password(): paper injection target. */
int auth_password(char *guess) {
    char xpasswd[24];
    if (user_valid == 0) {
        return 0;
    }
    if (strlen(guess) == 0) {
        if (permit_empty_passwords == 0) {
            return 0;
        }
        crypt_hash("", xpasswd);
        if (strcmp(xpasswd, expected_hash) == 0) {
            return 1;
        }
        return 0;
    }
    if (enable_kerberos) {
        /* Kerberos path — compiled in, disabled in this configuration */
        char kticket[64];
        int klen;
        klen = strlen(guess);
        if (klen > 8 && strncmp(guess, "krbtgt/", 7) == 0) {
            strncpy_safe(kticket, guess + 7, 57);
            crypt_hash(kticket, xpasswd);
            if (strcmp(xpasswd, expected_hash) == 0) {
                return 1;
            }
            return 0;
        }
    }
    crypt_hash(guess, xpasswd);
    if (strcmp(xpasswd, expected_hash) == 0) {
        return 1;
    }
    return 0;
}

/* split "METHOD arg..." into its parts (packet-parsing helper) */
void split_request(char *line, char *method, char *arg) {
    int i;
    int j;
    i = 0;
    while (line[i] && line[i] != ' ' && i < 31) {
        method[i] = line[i];
        i++;
    }
    method[i] = 0;
    j = 0;
    if (line[i] == ' ') {
        i++;
        while (line[i] && j < 255) {
            arg[j] = line[i];
            i++;
            j++;
        }
    }
    arg[j] = 0;
}

/* do_authentication(): paper injection target. Combination of
   mechanisms; any success sets authenticated and breaks — the paper's
   "multiple points of entry". */
int do_authentication() {
    char line[512];
    char method[32];
    char empty_hash[24];
    int authenticated;
    int attempts;
    int n;
    char arg[256];
    authenticated = 0;
    attempts = 0;
    while (1) {
        n = read_line(line, 511);
        if (n < 0) {
            exit(1);
        }
        split_request(line, method, arg);
        if (strcmp(method, "AUTH-NONE") == 0) {
            /* succeeds only for accounts with an empty password */
            if (cfg_auth_none) {
                if (user_valid) {
                    crypt_hash("", empty_hash);
                    if (strcmp(empty_hash, expected_hash) == 0) {
                        authenticated = 1;
                        break;
                    }
                }
            }
            write_str(1, "FAILURE\n");
            continue;
        }
        if (strcmp(method, "AUTH-RHOSTS") == 0) {
            if (cfg_auth_rhosts) {
                if (auth_rhosts(arg)) {
                    /* Authentication accepted. */
                    authenticated = 1;
                    break;
                }
            }
            strcpy(audit_buf, "Rhosts authentication refused for ");
            strcat(audit_buf, user_name);
            write_str(1, "FAILURE\n");
            continue;
        }
        if (strcmp(method, "AUTH-RSA") == 0) {
            if (cfg_auth_rsa) {
                if (auth_rsa(arg)) {
                    authenticated = 1;
                    break;
                }
            }
            strcpy(audit_buf, "RSA authentication refused for ");
            strcat(audit_buf, user_name);
            write_str(1, "FAILURE\n");
            continue;
        }
        if (strcmp(method, "AUTH-PASSWORD") == 0) {
            if (auth_password(arg)) {
                authenticated = 1;
                break;
            }
            attempts++;
            strcpy(audit_buf, "Failed password for ");
            strcat(audit_buf, user_name);
            strcat(audit_buf, " (attempt ");
            itoa(attempts, audit_buf + strlen(audit_buf));
            strcat(audit_buf, ")");
            if (attempts >= 3) {
                write_str(1, "TOOMANY\n");
                exit(1);
            }
            write_str(1, "FAILURE\n");
            continue;
        }
        if (strcmp(method, "DISCONNECT") == 0) {
            exit(0);
        }
        write_str(1, "PROTOCOL-ERROR\n");
        exit(1);
    }
    return authenticated;
}

void session_loop() {
    char line[256];
    int n;
    while (1) {
        n = read_line(line, 255);
        if (n < 0) {
            exit(1);
        }
        if (strcmp(line, "SHELL") == 0) {
            write_str(1, "SHELL-GRANTED $\n");
            continue;
        }
        if (strcmp(line, "DISCONNECT") == 0) {
            write_str(1, "BYE\n");
            exit(0);
        }
        write_str(1, "UNKNOWN-REQUEST\n");
    }
}

int main() {
    char peer_version[128];
    char line[512];
    int n;
    write_str(1, version_banner);
    n = packet_read(peer_version, 127);
    if (n < 0) {
        exit(1);
    }
    if (strncmp(peer_version, "SSH-", 4) != 0) {
        write_str(1, "PROTOCOL-MISMATCH\n");
        exit(1);
    }
    write_str(1, "OK\n");
    n = read_line(line, 511);
    if (n < 0) {
        exit(1);
    }
    if (strncmp(line, "AUTH-USER ", 10) != 0) {
        write_str(1, "PROTOCOL-ERROR\n");
        exit(1);
    }
    setup_user(line + 10);
    write_str(1, "OK-USER\n");
    if (do_authentication()) {
        write_str(1, "SUCCESS\n");
        session_loop();
    }
    return 0;
}
"#;

/// Build the sshd image at the canonical bases.
///
/// # Errors
/// [`BuildError`] if the embedded source fails to build (a bug; covered
/// by tests).
pub fn build_sshd() -> Result<Image, BuildError> {
    build_image(&[SSHD_SRC])
}

/// Build the *single-entry-point* sshd variant for the §5.3 ablation:
/// the identical binary with the none/rhosts/RSA mechanism switches
/// zeroed in the data segment, leaving password authentication as the
/// only way in. Text bytes — and therefore the injection target set —
/// are byte-for-byte identical to [`build_sshd`].
///
/// # Errors
/// [`BuildError`] if the embedded source fails to build.
///
/// # Panics
/// Panics if the config symbols are missing (a bug; covered by tests).
pub fn build_sshd_single_entry() -> Result<Image, BuildError> {
    let mut image = build_sshd()?;
    for flag in ["cfg_auth_none", "cfg_auth_rhosts", "cfg_auth_rsa"] {
        let sym = image
            .data_symbol(flag)
            .unwrap_or_else(|| panic!("{flag} missing"))
            .clone();
        let off = (sym.addr - image.data_base) as usize;
        image.data[off..off + 4].fill(0);
    }
    Ok(image)
}

/// The two client access patterns of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SshPattern {
    /// Client1: existing user, wrong password (the attack pattern). Tries
    /// none → rhosts → password, like a real ssh client walking its
    /// method list.
    WrongPassword,
    /// Client2: existing user, correct password.
    CorrectPassword,
}

impl SshPattern {
    /// Both patterns in paper order.
    pub const ALL: [SshPattern; 2] = [SshPattern::WrongPassword, SshPattern::CorrectPassword];

    /// Paper-style client name.
    pub fn name(self) -> &'static str {
        match self {
            SshPattern::WrongPassword => "Client1",
            SshPattern::CorrectPassword => "Client2",
        }
    }

    /// Whether the golden run denies this client.
    pub fn golden_denied(self) -> bool {
        matches!(self, SshPattern::WrongPassword)
    }

    fn password(self) -> &'static str {
        match self {
            SshPattern::WrongPassword => "letmein",
            SshPattern::CorrectPassword => "wonderland",
        }
    }

    /// Content identity of the scripted behavior, for the campaign
    /// cache: any change to what this client sends (user, method walk,
    /// password) must change this string. The leading version tag
    /// covers script-logic changes the summary would miss.
    pub fn script_fingerprint(self) -> String {
        format!(
            "ssh-script-v1:{}:user alice:methods none,rhosts,rsa,password:pass {}",
            self.name(),
            self.password()
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SshState {
    WaitBanner,
    WaitVersionOk,
    WaitUserOk,
    TryNone,
    TryRhosts,
    TryRsa,
    TryPassword,
    WaitShell,
    WaitBye,
    Done,
}

/// Scripted SSH client implementing the paper's two access patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SshClient {
    pattern: SshPattern,
    state: SshState,
    lines: LineBuf,
    granted: bool,
    denied: bool,
    confused: bool,
}

impl SshClient {
    /// New client with the given pattern.
    pub fn new(pattern: SshPattern) -> SshClient {
        SshClient {
            pattern,
            state: SshState::WaitBanner,
            lines: LineBuf::new(),
            granted: false,
            denied: false,
            confused: false,
        }
    }

    /// Boxed constructor for [`fisec_net::Channel`].
    pub fn boxed(pattern: SshPattern) -> Box<SshClient> {
        Box::new(SshClient::new(pattern))
    }

    fn handle_line(&mut self, line: &[u8], out: &mut dyn FnMut(Vec<u8>)) {
        let s = String::from_utf8_lossy(line).into_owned();
        match self.state {
            SshState::WaitBanner => {
                if s.starts_with("SSH-") {
                    out(b"SSH-1.5-fisec_client\r\n".to_vec());
                    self.state = SshState::WaitVersionOk;
                } else {
                    self.abort(out);
                }
            }
            SshState::WaitVersionOk => {
                if s == "OK" {
                    out(b"AUTH-USER alice\n".to_vec());
                    self.state = SshState::WaitUserOk;
                } else {
                    self.abort(out);
                }
            }
            SshState::WaitUserOk => {
                if s == "OK-USER" {
                    out(b"AUTH-NONE -\n".to_vec());
                    self.state = SshState::TryNone;
                } else {
                    self.abort(out);
                }
            }
            SshState::TryNone => match s.as_str() {
                "SUCCESS" => self.success(out),
                "FAILURE" => {
                    out(b"AUTH-RHOSTS evil.example.com\n".to_vec());
                    self.state = SshState::TryRhosts;
                }
                _ => self.abort(out),
            },
            SshState::TryRhosts => match s.as_str() {
                "SUCCESS" => self.success(out),
                "FAILURE" => {
                    out(b"AUTH-RSA alice fp:0badc0de\n".to_vec());
                    self.state = SshState::TryRsa;
                }
                _ => self.abort(out),
            },
            SshState::TryRsa => match s.as_str() {
                "SUCCESS" => self.success(out),
                "FAILURE" => {
                    let pw = self.pattern.password();
                    out(format!("AUTH-PASSWORD {pw}\n").into_bytes());
                    self.state = SshState::TryPassword;
                }
                _ => self.abort(out),
            },
            SshState::TryPassword => match s.as_str() {
                "SUCCESS" => self.success(out),
                "FAILURE" | "TOOMANY" => {
                    self.denied = true;
                    out(b"DISCONNECT\n".to_vec());
                    self.state = SshState::Done;
                }
                _ => self.abort(out),
            },
            SshState::WaitShell => {
                if s.starts_with("SHELL-GRANTED") {
                    self.granted = true;
                    out(b"DISCONNECT\n".to_vec());
                    self.state = SshState::WaitBye;
                } else {
                    self.abort(out);
                }
            }
            SshState::WaitBye => {
                if s == "BYE" {
                    self.state = SshState::Done;
                } else {
                    self.confused = true;
                }
            }
            SshState::Done => {
                self.confused = true;
            }
        }
    }

    fn success(&mut self, out: &mut dyn FnMut(Vec<u8>)) {
        out(b"SHELL\n".to_vec());
        self.state = SshState::WaitShell;
    }

    fn abort(&mut self, out: &mut dyn FnMut(Vec<u8>)) {
        self.confused = true;
        out(b"DISCONNECT\n".to_vec());
        self.state = SshState::Done;
    }
}

impl ClientDriver for SshClient {
    fn on_server_data(&mut self, data: &[u8], out: &mut dyn FnMut(Vec<u8>)) {
        self.lines.push(data);
        while let Some(line) = self.lines.pop_line() {
            self.handle_line(&line, out);
        }
    }

    fn same_state(&self, earlier: &dyn ClientDriver) -> bool {
        earlier.as_any().downcast_ref::<SshClient>() == Some(self)
    }

    fn status(&self) -> ClientStatus {
        if self.granted {
            ClientStatus::Granted
        } else if self.confused {
            ClientStatus::Confused
        } else if self.denied || self.state == SshState::Done {
            ClientStatus::Denied
        } else {
            ClientStatus::InProgress
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_os::{run_session, Stop};

    fn golden(pattern: SshPattern) -> fisec_os::SessionResult {
        let img = build_sshd().expect("sshd builds");
        run_session(&img, SshClient::boxed(pattern), 5_000_000).expect("load")
    }

    #[test]
    fn sshd_builds_with_auth_functions() {
        let img = build_sshd().unwrap();
        for f in SSHD_AUTH_FUNCS {
            assert!(img.func(f).is_some(), "missing {f}");
        }
        let frac = img.text_fraction(&SSHD_AUTH_FUNCS);
        assert!(frac > 0.02 && frac < 0.7, "fraction {frac}");
    }

    #[test]
    fn client1_wrong_password_denied() {
        let r = golden(SshPattern::WrongPassword);
        assert_eq!(r.stop, Stop::Exited(0), "stop {:?}", r.stop);
        assert_eq!(r.client, ClientStatus::Denied);
    }

    #[test]
    fn client2_correct_password_gets_shell() {
        let r = golden(SshPattern::CorrectPassword);
        assert_eq!(r.stop, Stop::Exited(0), "stop {:?}", r.stop);
        assert_eq!(r.client, ClientStatus::Granted);
        let all: Vec<u8> = r
            .trace
            .messages()
            .iter()
            .filter(|m| m.dir == fisec_net::Dir::ToClient)
            .flat_map(|m| m.bytes.clone())
            .collect();
        assert!(String::from_utf8_lossy(&all).contains("SHELL-GRANTED"));
    }

    #[test]
    fn client1_walks_all_four_methods() {
        let r = golden(SshPattern::WrongPassword);
        let to_server: Vec<u8> = r
            .trace
            .messages()
            .iter()
            .filter(|m| m.dir == fisec_net::Dir::ToServer)
            .flat_map(|m| m.bytes.clone())
            .collect();
        let s = String::from_utf8_lossy(&to_server);
        assert!(s.contains("AUTH-NONE"));
        assert!(s.contains("AUTH-RHOSTS"));
        assert!(s.contains("AUTH-RSA"));
        assert!(s.contains("AUTH-PASSWORD"));
    }

    #[test]
    fn golden_runs_are_deterministic() {
        let a = golden(SshPattern::WrongPassword);
        let b = golden(SshPattern::WrongPassword);
        assert!(a.trace.matches(&b.trace));
        assert_eq!(a.icount, b.icount);
    }

    #[test]
    fn pattern_metadata() {
        assert!(SshPattern::WrongPassword.golden_denied());
        assert!(!SshPattern::CorrectPassword.golden_denied());
        assert_eq!(SshPattern::WrongPassword.name(), "Client1");
    }

    #[test]
    fn single_entry_variant_behaves() {
        // Same text bytes, different config data.
        let multi = build_sshd().unwrap();
        let single = build_sshd_single_entry().unwrap();
        assert_eq!(multi.text, single.text, "ablation must not change text");
        assert_ne!(multi.data, single.data);
        // Correct password still works; rhosts/none/rsa paths are dead.
        let ok = run_session(
            &single,
            SshClient::boxed(SshPattern::CorrectPassword),
            5_000_000,
        )
        .unwrap();
        assert_eq!(ok.client, ClientStatus::Granted);
        let bad = run_session(
            &single,
            SshClient::boxed(SshPattern::WrongPassword),
            5_000_000,
        )
        .unwrap();
        assert_eq!(bad.client, ClientStatus::Denied);
    }

    #[test]
    fn push_0x2000_appears_in_packet_read() {
        // Figure 3: the 8192 buffer length is pushed as an immediate.
        let img = build_sshd().unwrap();
        let f = img.func("packet_read").unwrap().clone();
        let insts = img.decode_func(&f);
        let has_push_2000 = insts.iter().any(|(_, i)| {
            i.op == fisec_x86::Op::Push && i.dst == Some(fisec_x86::Operand::Imm(0x2000))
        });
        assert!(has_push_2000, "no `push $0x2000` in packet_read");
    }
}
