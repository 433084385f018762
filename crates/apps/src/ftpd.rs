//! The ftpd-like target application (wu-ftpd-2.6.0 analogue).
//!
//! The server is written in mini-C and compiled by `fisec-cc`; its
//! authentication lives in two functions named `user` and `pass`, exactly
//! the functions the paper injected. `pass` reproduces the structure of
//! the paper's Figure 1: hash the guess, `strcmp` against the stored
//! hash, `rval == 0` grants access.

use crate::clients::LineBuf;
use fisec_asm::Image;
use fisec_cc::{build_image, BuildError};
use fisec_net::{ClientDriver, ClientStatus};

/// The functions the paper injects for ftpd.
pub const FTPD_AUTH_FUNCS: [&str; 2] = ["user", "pass"];

/// Marker string in the protected file; a client that sees it has read
/// the protected resource.
pub const SECRET_MARKER: &str = "TOP-SECRET";

/// mini-C source of the server.
pub const FTPD_SRC: &str = r#"
/* fisec ftpd: a wu-ftpd-2.6.0-like control-connection server. */

char banner[] = "220 fisec FTP server (Version wu-2.6.0-sim) ready.\r\n";

/* account database (plaintext is consulted only to derive the stored
   hash, standing in for the /etc/passwd crypt field) */
char acct0_name[] = "alice";
char acct0_pass[] = "wonderland";
char acct1_name[] = "bob";
char acct1_pass[] = "builder";
char deny0_name[] = "root";

char acct2_name[] = "carol";
char acct2_pass[] = "disabledpw";
char deny1_name[] = "daemon";
char deny2_name[] = "bin";

char secret_file[] = "TOP-SECRET payload: the merger closes friday.\n";
char public_file[] = "welcome to the fisec ftp archive.\n";

/* config flags: optional authentication features, off in this install
   (real wu-ftpd carries large amounts of conditionally-enabled code) */
int enable_skey;
int enable_krb;
int guest_limit = 10;

/* session state */
int state_user_given;
int state_logged_in;
int state_anonymous;
int state_attempts;
int guest_count;
char cur_user[64];
char expected_hash[24];
char skey_challenge[64];
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

void reply(char *msg) {
    write_str(1, msg);
}

char *lookup_password(char *name) {
    if (strcmp(name, acct0_name) == 0) {
        return acct0_pass;
    }
    if (strcmp(name, acct1_name) == 0) {
        return acct1_pass;
    }
    if (strcmp(name, acct2_name) == 0) {
        return acct2_pass;
    }
    return 0;
}

int account_disabled(char *name) {
    /* carol's account is administratively disabled */
    if (strcmp(name, acct2_name) == 0) {
        return 1;
    }
    return 0;
}

int user_denied(char *name) {
    if (strcmp(name, deny0_name) == 0) {
        return 1;
    }
    if (strcmp(name, deny1_name) == 0) {
        return 1;
    }
    if (strcmp(name, deny2_name) == 0) {
        return 1;
    }
    return 0;
}

int valid_name_chars(char *name) {
    int i;
    char c;
    i = 0;
    while (name[i]) {
        c = name[i];
        if (c >= 'a' && c <= 'z') {
            i++;
            continue;
        }
        if (c >= 'A' && c <= 'Z') {
            i++;
            continue;
        }
        if (c >= '0' && c <= '9') {
            i++;
            continue;
        }
        if (c == '_' || c == '-' || c == '.') {
            i++;
            continue;
        }
        return 0;
    }
    return 1;
}

/* a plausible email: at least 6 characters, exactly one '@', a '.',
   and no spaces */
int valid_email(char *addr) {
    int has_at;
    int has_dot;
    int bad_char;
    int glen;
    int i;
    has_at = 0;
    has_dot = 0;
    bad_char = 0;
    glen = 0;
    i = 0;
    while (addr[i]) {
        if (addr[i] == '@') {
            has_at = has_at + 1;
        }
        if (addr[i] == '.') {
            has_dot = 1;
        }
        if (addr[i] == ' ') {
            bad_char = 1;
        }
        glen++;
        i++;
    }
    if (glen >= 6 && has_at == 1 && has_dot && bad_char == 0) {
        return 1;
    }
    return 0;
}

/* user(): first half of authentication — the paper's injection target. */
void user(char *name) {
    char *pw;
    int nlen;
    int i;
    state_logged_in = 0;
    state_user_given = 0;
    state_anonymous = 0;
    nlen = strlen(name);
    if (nlen == 0) {
        reply("501 USER: missing user name.\r\n");
        return;
    }
    if (nlen > 40) {
        reply("501 USER: name too long.\r\n");
        return;
    }
    if (valid_name_chars(name) == 0) {
        reply("501 USER: invalid characters in user name.\r\n");
        return;
    }
    if (strcmp(name, "anonymous") == 0 || strcmp(name, "ftp") == 0) {
        /* guest handling: count guests, apply the configured limit and
           prime the audit line (wu-ftpd logs every guest login) */
        if (guest_count >= guest_limit) {
            reply("530 Too many anonymous users, try again later.\r\n");
            return;
        }
        guest_count++;
        state_anonymous = 1;
        state_user_given = 1;
        strcpy(cur_user, "anonymous");
        strcpy(audit_buf, "ANONYMOUS FTP LOGIN FROM client, ");
        strcat(audit_buf, name);
        reply("331 Guest login ok, send your email address as password.\r\n");
        return;
    }
    if (user_denied(name)) {
        reply("532 User access denied.\r\n");
        return;
    }
    if (account_disabled(name)) {
        reply("530 User account is disabled.\r\n");
        return;
    }
    strncpy_safe(cur_user, name, 41);
    pw = lookup_password(name);
    if (pw) {
        crypt_hash(pw, expected_hash);
    } else {
        /* unknown users get an unmatchable stored hash; the reply does
           not reveal whether the account exists (wu-ftpd behaviour) */
        expected_hash[0] = '*';
        expected_hash[1] = 0;
    }
    if (enable_skey) {
        /* S/Key challenge construction — compiled in, disabled in this
           configuration (mirrors wu-ftpd's optional OPIE support) */
        strcpy(skey_challenge, "331 s/key ");
        i = 0;
        while (i < 4) {
            skey_challenge[10 + i] = '0' + (nlen + i) % 10;
            i++;
        }
        skey_challenge[14] = ' ';
        skey_challenge[15] = 0;
        strcat(skey_challenge, name);
        strcat(skey_challenge, "\r\n");
        state_user_given = 1;
        reply(skey_challenge);
        return;
    }
    state_user_given = 1;
    reply("331 Password required.\r\n");
}

/* pass(): second half — mirrors the paper's Figure 1 exactly:
   hash the guess, strcmp with the stored hash, rval == 0 grants. */
void pass(char *guess) {
    char xpasswd[24];
    int rval;
    if (state_user_given == 0) {
        reply("503 Login with USER first.\r\n");
        return;
    }
    if (state_logged_in) {
        reply("230 Already logged in.\r\n");
        return;
    }
    rval = 1;
    if (state_anonymous) {
        /* guests must supply a plausible email address as password */
        if (valid_email(guess)) {
            rval = 0;
        }
        if (strlen(guess) > 120) {
            /* defensive length cap on the logged address */
            rval = 1;
        }
    } else {
        if (enable_krb) {
            /* Kerberos pre-check — compiled in, disabled here (wu-ftpd
               builds carried this behind a runtime flag) */
            int klen;
            klen = strlen(guess);
            if (klen > 4) {
                if (guess[0] == 'K' && guess[1] == 'R' && guess[2] == 'B') {
                    crypt_hash(guess + 3, xpasswd);
                    if (strcmp(xpasswd, expected_hash) == 0) {
                        rval = 0;
                    }
                }
            }
        }
        if (rval) {
            crypt_hash(guess, xpasswd);
            if (strcmp(xpasswd, expected_hash) == 0) {
                rval = 0;
            }
        }
    }
    if (rval) {
        state_attempts++;
        state_user_given = 0;
        /* build the audit line the way wu-ftpd prepares its syslog
           entry: "failed login from client, <user> (attempt N)" */
        strcpy(audit_buf, "failed login from client, ");
        strcat(audit_buf, cur_user);
        strcat(audit_buf, " (attempt ");
        itoa(state_attempts, audit_buf + strlen(audit_buf));
        strcat(audit_buf, ")");
        if (state_attempts >= 3) {
            reply("421 Too many login failures; closing connection.\r\n");
            exit(1);
        }
        reply("530 Login incorrect.\r\n");
        return;
    }
    state_logged_in = 1;
    if (state_anonymous) {
        reply("230 Guest login ok, access restrictions apply.\r\n");
        return;
    }
    strcpy(audit_buf, "FTP LOGIN FROM client, ");
    strcat(audit_buf, cur_user);
    reply("230 User logged in.\r\n");
}

/* current working directory (toy filesystem: / and /pub) */
char cwd[32] = "/";

void list_files() {
    if (state_logged_in == 0) {
        reply("530 Please login with USER and PASS.\r\n");
        return;
    }
    reply("150 Opening ASCII mode data connection for file list.\r\n");
    if (strcmp(cwd, "/") == 0) {
        write_str(1, "welcome.txt\r\npub\r\n");
        if (state_anonymous == 0) {
            write_str(1, "secret.txt\r\n");
        }
    } else {
        write_str(1, "README\r\n");
    }
    reply("226 Transfer complete.\r\n");
}

void cwd_cmd(char *path) {
    if (state_logged_in == 0) {
        reply("530 Please login with USER and PASS.\r\n");
        return;
    }
    if (strcmp(path, "/") == 0 || strcmp(path, "..") == 0) {
        strcpy(cwd, "/");
        reply("250 CWD command successful.\r\n");
        return;
    }
    if (strcmp(path, "pub") == 0 || strcmp(path, "/pub") == 0) {
        strcpy(cwd, "/pub");
        reply("250 CWD command successful.\r\n");
        return;
    }
    reply("550 No such directory.\r\n");
}

void pwd_cmd() {
    char line[64];
    if (state_logged_in == 0) {
        reply("530 Please login with USER and PASS.\r\n");
        return;
    }
    strcpy(line, "257 \"");
    strcat(line, cwd);
    strcat(line, "\" is the current directory.\r\n");
    reply(line);
}

void retr(char *path) {
    if (state_logged_in == 0) {
        reply("530 Please login with USER and PASS.\r\n");
        return;
    }
    if (strcmp(path, "secret.txt") == 0) {
        if (state_anonymous) {
            reply("550 secret.txt: Permission denied.\r\n");
            return;
        }
        reply("150 Opening ASCII mode data connection.\r\n");
        write_str(1, secret_file);
        reply("226 Transfer complete.\r\n");
        return;
    }
    if (strcmp(path, "welcome.txt") == 0) {
        reply("150 Opening ASCII mode data connection.\r\n");
        write_str(1, public_file);
        reply("226 Transfer complete.\r\n");
        return;
    }
    reply("550 No such file or directory.\r\n");
}

int main() {
    char line[256];
    char cmd[16];
    char arg[200];
    int n;
    int i;
    int j;
    state_attempts = 0;
    reply(banner);
    while (1) {
        n = read_line(line, 255);
        if (n < 0) {
            break;
        }
        i = 0;
        while (line[i] && line[i] != ' ' && i < 15) {
            cmd[i] = line[i];
            i++;
        }
        cmd[i] = 0;
        j = 0;
        if (line[i] == ' ') {
            i++;
            while (line[i] && j < 199) {
                arg[j] = line[i];
                i++;
                j++;
            }
        }
        arg[j] = 0;
        if (strcmp(cmd, "USER") == 0) {
            user(arg);
            continue;
        }
        if (strcmp(cmd, "PASS") == 0) {
            pass(arg);
            continue;
        }
        if (strcmp(cmd, "RETR") == 0) {
            retr(arg);
            continue;
        }
        if (strcmp(cmd, "LIST") == 0) {
            list_files();
            continue;
        }
        if (strcmp(cmd, "CWD") == 0) {
            cwd_cmd(arg);
            continue;
        }
        if (strcmp(cmd, "PWD") == 0) {
            pwd_cmd();
            continue;
        }
        if (strcmp(cmd, "SYST") == 0) {
            reply("215 UNIX Type: L8\r\n");
            continue;
        }
        if (strcmp(cmd, "TYPE") == 0) {
            reply("200 Type set to A.\r\n");
            continue;
        }
        if (strcmp(cmd, "NOOP") == 0) {
            reply("200 NOOP command successful.\r\n");
            continue;
        }
        if (strcmp(cmd, "QUIT") == 0) {
            reply("221 Goodbye.\r\n");
            return 0;
        }
        reply("500 command not understood.\r\n");
    }
    return 0;
}
"#;

/// Build the ftpd image at the canonical bases.
///
/// # Errors
/// [`BuildError`] if the embedded source fails to build (a bug; covered
/// by tests).
pub fn build_ftpd() -> Result<Image, BuildError> {
    build_image(&[FTPD_SRC])
}

/// The four client access patterns of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtpPattern {
    /// Client1: existing user name, wrong password (the attack pattern).
    WrongPassword,
    /// Client2: existing user name, correct password.
    CorrectPassword,
    /// Client3: non-existing user name and password.
    UnknownUser,
    /// Client4: anonymous login.
    Anonymous,
}

impl FtpPattern {
    /// All four patterns in paper order.
    pub const ALL: [FtpPattern; 4] = [
        FtpPattern::WrongPassword,
        FtpPattern::CorrectPassword,
        FtpPattern::UnknownUser,
        FtpPattern::Anonymous,
    ];

    /// Paper-style client name ("Client1"..."Client4").
    pub fn name(self) -> &'static str {
        match self {
            FtpPattern::WrongPassword => "Client1",
            FtpPattern::CorrectPassword => "Client2",
            FtpPattern::UnknownUser => "Client3",
            FtpPattern::Anonymous => "Client4",
        }
    }

    /// Whether the golden (error-free) run denies this client.
    pub fn golden_denied(self) -> bool {
        matches!(self, FtpPattern::WrongPassword | FtpPattern::UnknownUser)
    }

    fn credentials(self) -> (&'static str, &'static str, &'static str) {
        // (user, password, file to retrieve)
        match self {
            FtpPattern::WrongPassword => ("alice", "letmein", "secret.txt"),
            FtpPattern::CorrectPassword => ("alice", "wonderland", "secret.txt"),
            FtpPattern::UnknownUser => ("mallory", "anything", "secret.txt"),
            FtpPattern::Anonymous => ("anonymous", "guest@example.com", "welcome.txt"),
        }
    }

    /// Content identity of the scripted behavior, for the campaign
    /// cache: any change to what this client sends (credentials, file,
    /// command sequence) must change this string. The leading version
    /// tag covers script-logic changes that the credential summary
    /// would miss.
    pub fn script_fingerprint(self) -> String {
        let (user, pass, file) = self.credentials();
        format!(
            "ftp-script-v1:{}:USER {user}:PASS {pass}:RETR {file}",
            self.name()
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FtpState {
    WaitBanner,
    WaitUserReply,
    WaitPassReply,
    WaitRetrReply,
    InData,
    WaitQuitReply,
    Done,
}

/// Scripted FTP client implementing the paper's four access patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtpClient {
    pattern: FtpPattern,
    state: FtpState,
    lines: LineBuf,
    granted: bool,
    denied: bool,
    confused: bool,
    quit_sent: bool,
}

impl FtpClient {
    /// New client with the given access pattern.
    pub fn new(pattern: FtpPattern) -> FtpClient {
        FtpClient {
            pattern,
            state: FtpState::WaitBanner,
            lines: LineBuf::new(),
            granted: false,
            denied: false,
            confused: false,
            quit_sent: false,
        }
    }

    /// Boxed constructor for [`fisec_net::Channel`].
    pub fn boxed(pattern: FtpPattern) -> Box<FtpClient> {
        Box::new(FtpClient::new(pattern))
    }

    fn quit(&mut self, out: &mut dyn FnMut(Vec<u8>)) {
        if !self.quit_sent {
            self.quit_sent = true;
            out(b"QUIT\r\n".to_vec());
        }
        self.state = FtpState::WaitQuitReply;
    }

    fn handle_line(&mut self, line: &[u8], out: &mut dyn FnMut(Vec<u8>)) {
        let code = reply_code(line);
        let (user, pass, file) = self.pattern.credentials();
        match self.state {
            FtpState::WaitBanner => match code {
                Some(220) => {
                    out(format!("USER {user}\r\n").into_bytes());
                    self.state = FtpState::WaitUserReply;
                }
                _ => {
                    self.confused = true;
                    self.quit(out);
                }
            },
            FtpState::WaitUserReply => match code {
                Some(331) => {
                    out(format!("PASS {pass}\r\n").into_bytes());
                    self.state = FtpState::WaitPassReply;
                }
                Some(530) | Some(532) | Some(501) => {
                    self.denied = true;
                    self.quit(out);
                }
                _ => {
                    self.confused = true;
                    self.quit(out);
                }
            },
            FtpState::WaitPassReply => match code {
                Some(230) => {
                    out(format!("RETR {file}\r\n").into_bytes());
                    self.state = FtpState::WaitRetrReply;
                }
                Some(530) | Some(503) => {
                    self.denied = true;
                    self.quit(out);
                }
                Some(421) => {
                    self.denied = true;
                    self.state = FtpState::Done;
                }
                _ => {
                    self.confused = true;
                    self.quit(out);
                }
            },
            FtpState::WaitRetrReply => match code {
                Some(150) => self.state = FtpState::InData,
                Some(550) | Some(530) => {
                    self.denied = true;
                    self.quit(out);
                }
                _ => {
                    self.confused = true;
                    self.quit(out);
                }
            },
            FtpState::InData => {
                if code == Some(226) {
                    // Retrieval complete: the protected resource was served.
                    self.granted = true;
                    self.quit(out);
                }
                // Other lines are file payload.
            }
            FtpState::WaitQuitReply => {
                if code == Some(221) {
                    self.state = FtpState::Done;
                }
                // Anything else after QUIT is unexpected chatter; note it.
                else {
                    self.confused = true;
                }
            }
            FtpState::Done => {
                self.confused = true;
            }
        }
    }
}

/// Parse a leading 3-digit FTP reply code.
fn reply_code(line: &[u8]) -> Option<u32> {
    if line.len() >= 3 && line[..3].iter().all(u8::is_ascii_digit) {
        let code =
            (line[0] - b'0') as u32 * 100 + (line[1] - b'0') as u32 * 10 + (line[2] - b'0') as u32;
        Some(code)
    } else {
        None
    }
}

impl ClientDriver for FtpClient {
    fn on_server_data(&mut self, data: &[u8], out: &mut dyn FnMut(Vec<u8>)) {
        self.lines.push(data);
        while let Some(line) = self.lines.pop_line() {
            self.handle_line(&line, out);
        }
    }

    fn same_state(&self, earlier: &dyn ClientDriver) -> bool {
        earlier.as_any().downcast_ref::<FtpClient>() == Some(self)
    }

    fn status(&self) -> ClientStatus {
        if self.granted {
            ClientStatus::Granted
        } else if self.confused {
            ClientStatus::Confused
        } else if self.denied || self.state == FtpState::Done {
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

    fn golden(pattern: FtpPattern) -> fisec_os::SessionResult {
        let img = build_ftpd().expect("ftpd builds");
        run_session(&img, FtpClient::boxed(pattern), 5_000_000).expect("load")
    }

    #[test]
    fn ftpd_builds_with_auth_functions() {
        let img = build_ftpd().unwrap();
        for f in FTPD_AUTH_FUNCS {
            assert!(img.func(f).is_some(), "missing {f}");
        }
        // The auth section is a recognizable fraction of the text segment
        // (the paper reports ~8% for wu-ftpd).
        let frac = img.text_fraction(&FTPD_AUTH_FUNCS);
        assert!(frac > 0.02 && frac < 0.6, "fraction {frac}");
    }

    #[test]
    fn client1_wrong_password_denied() {
        let r = golden(FtpPattern::WrongPassword);
        assert_eq!(r.stop, Stop::Exited(0), "stop {:?}", r.stop);
        assert_eq!(r.client, ClientStatus::Denied);
    }

    #[test]
    fn client2_correct_password_granted() {
        let r = golden(FtpPattern::CorrectPassword);
        assert_eq!(r.stop, Stop::Exited(0));
        assert_eq!(r.client, ClientStatus::Granted);
        // The secret actually crossed the wire.
        let all: Vec<u8> = r
            .trace
            .messages()
            .iter()
            .filter(|m| m.dir == fisec_net::Dir::ToClient)
            .flat_map(|m| m.bytes.clone())
            .collect();
        assert!(String::from_utf8_lossy(&all).contains(SECRET_MARKER));
    }

    #[test]
    fn client3_unknown_user_denied() {
        let r = golden(FtpPattern::UnknownUser);
        assert_eq!(r.stop, Stop::Exited(0));
        assert_eq!(r.client, ClientStatus::Denied);
    }

    #[test]
    fn client4_anonymous_granted_public_file() {
        let r = golden(FtpPattern::Anonymous);
        assert_eq!(r.stop, Stop::Exited(0));
        assert_eq!(r.client, ClientStatus::Granted);
    }

    #[test]
    fn golden_runs_are_deterministic() {
        let a = golden(FtpPattern::WrongPassword);
        let b = golden(FtpPattern::WrongPassword);
        assert!(a.trace.matches(&b.trace));
        assert_eq!(a.icount, b.icount);
    }

    #[test]
    fn reply_code_parsing() {
        assert_eq!(reply_code(b"220 ready"), Some(220));
        assert_eq!(reply_code(b"530 no"), Some(530));
        assert_eq!(reply_code(b"hi"), None);
        assert_eq!(reply_code(b"12"), None);
    }

    #[test]
    fn pattern_metadata() {
        assert!(FtpPattern::WrongPassword.golden_denied());
        assert!(!FtpPattern::CorrectPassword.golden_denied());
        assert_eq!(FtpPattern::ALL.len(), 4);
        assert_eq!(FtpPattern::Anonymous.name(), "Client4");
    }

    #[test]
    fn anonymous_cannot_read_secret() {
        // Even logged in as guest, secret.txt stays protected; the server
        // must answer 550.
        let img = build_ftpd().unwrap();
        #[derive(Clone)]
        struct Raw {
            step: usize,
            lines: LineBuf,
        }
        impl ClientDriver for Raw {
            fn on_server_data(&mut self, data: &[u8], out: &mut dyn FnMut(Vec<u8>)) {
                self.lines.push(data);
                while let Some(l) = self.lines.pop_line() {
                    let code = super::reply_code(&l);
                    match (self.step, code) {
                        (0, Some(220)) => {
                            out(b"USER anonymous\r\n".to_vec());
                            self.step = 1;
                        }
                        (1, Some(331)) => {
                            out(b"PASS me@example.com\r\n".to_vec());
                            self.step = 2;
                        }
                        (2, Some(230)) => {
                            out(b"RETR secret.txt\r\n".to_vec());
                            self.step = 3;
                        }
                        (3, Some(550)) => {
                            out(b"QUIT\r\n".to_vec());
                            self.step = 4;
                        }
                        _ => {}
                    }
                }
            }
            fn status(&self) -> ClientStatus {
                ClientStatus::InProgress
            }
        }
        let mut p = fisec_os::Process::load(
            &img,
            Box::new(Raw {
                step: 0,
                lines: LineBuf::new(),
            }),
        )
        .unwrap();
        let stop = p.run();
        assert_eq!(stop, Stop::Exited(0));
        let to_client: Vec<u8> = p
            .trace()
            .messages()
            .iter()
            .filter(|m| m.dir == fisec_net::Dir::ToClient)
            .flat_map(|m| m.bytes.clone())
            .collect();
        let s = String::from_utf8_lossy(&to_client).into_owned();
        assert!(s.contains("550 secret.txt: Permission denied"), "{s}");
        assert!(!s.contains(SECRET_MARKER));
    }
}
