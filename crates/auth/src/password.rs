//! Username/password login and sessions for the web user interfaces
//! (paper §5.4: "Accesses to web user interfaces are authenticated by a
//! login system using a username and a password").

use crate::entropy::os_random;
use crate::{constant_time_eq, hmac_sha256, sha256, to_hex};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Iterations of the salted hash chain. A real deployment would use a
/// memory-hard KDF; an iterated salted SHA-256 preserves the verification
/// flow while keeping this repo dependency-free.
const PBKDF_ITERATIONS: u32 = 10_000;

/// How long a web session stays valid without re-login.
pub const SESSION_TTL_SECS: u64 = 30 * 60;

/// (salt, verifier) pair stored per user.
type Verifier = ([u8; 16], [u8; 32]);

/// Salted, iterated password verifier storage.
#[derive(Default)]
pub struct PasswordStore {
    /// username -> (salt, verifier)
    users: RwLock<HashMap<String, Verifier>>,
}

fn derive(salt: &[u8; 16], password: &str) -> [u8; 32] {
    let mut acc = sha256(&[salt.as_slice(), password.as_bytes()].concat());
    for _ in 1..PBKDF_ITERATIONS {
        acc = sha256(&acc);
    }
    acc
}

impl PasswordStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a user. Returns `false` (and changes nothing) if the name
    /// is taken.
    pub fn create_user(&self, username: &str, password: &str) -> bool {
        let mut users = self.users.write();
        if users.contains_key(username) {
            return false;
        }
        let salt: [u8; 16] = os_random();
        let verifier = derive(&salt, password);
        users.insert(username.to_string(), (salt, verifier));
        true
    }

    /// Verifies a login attempt in constant time w.r.t. the verifier.
    pub fn verify(&self, username: &str, password: &str) -> bool {
        let users = self.users.read();
        match users.get(username) {
            Some((salt, verifier)) => constant_time_eq(&derive(salt, password), verifier),
            None => false,
        }
    }

    /// Changes a password after verifying the old one.
    pub fn change_password(&self, username: &str, old: &str, new: &str) -> bool {
        if !self.verify(username, old) {
            return false;
        }
        let mut users = self.users.write();
        let entry = users.get_mut(username).expect("verified above");
        let salt: [u8; 16] = os_random();
        *entry = (salt, derive(&salt, new));
        true
    }

    /// Number of registered users.
    pub fn len(&self) -> usize {
        self.users.read().len()
    }

    /// True if no users exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A live web session.
#[derive(Debug, Clone)]
pub struct Session {
    /// Opaque bearer token handed to the browser.
    pub token: String,
    /// Username the session authenticates.
    pub username: String,
    /// When the session expires.
    pub expires_at: Instant,
}

/// Issues and validates expiring web-session tokens.
///
/// Tokens are `hex(HMAC(server_secret, username || nonce))`, so they are
/// unforgeable without the server secret and meaningless across servers.
pub struct SessionManager {
    secret: [u8; 32],
    sessions: RwLock<HashMap<String, Session>>,
    ttl: Duration,
}

impl Default for SessionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionManager {
    /// A manager with a fresh random server secret and the default TTL.
    pub fn new() -> Self {
        Self::with_ttl(Duration::from_secs(SESSION_TTL_SECS))
    }

    /// A manager with a custom TTL (tests use short TTLs).
    pub fn with_ttl(ttl: Duration) -> Self {
        let secret: [u8; 32] = os_random();
        SessionManager {
            secret,
            sessions: RwLock::new(HashMap::new()),
            ttl,
        }
    }

    /// Starts a session for `username`, returning the bearer token.
    pub fn login(&self, username: &str) -> String {
        let nonce: [u8; 16] = os_random();
        let mut material = Vec::with_capacity(username.len() + nonce.len());
        material.extend_from_slice(username.as_bytes());
        material.extend_from_slice(&nonce);
        let token = to_hex(&hmac_sha256(&self.secret, &material));
        let session = Session {
            token: token.clone(),
            username: username.to_string(),
            expires_at: Instant::now() + self.ttl,
        };
        self.sessions.write().insert(token.clone(), session);
        token
    }

    /// Returns the username for a live session token; expired sessions are
    /// removed on access.
    pub fn validate(&self, token: &str) -> Option<String> {
        let mut sessions = self.sessions.write();
        match sessions.get(token) {
            Some(s) if s.expires_at > Instant::now() => Some(s.username.clone()),
            Some(_) => {
                sessions.remove(token);
                None
            }
            None => None,
        }
    }

    /// Ends a session.
    pub fn logout(&self, token: &str) -> bool {
        self.sessions.write().remove(token).is_some()
    }

    /// Drops all expired sessions; returns how many were removed.
    pub fn sweep(&self) -> usize {
        let now = Instant::now();
        let mut sessions = self.sessions.write();
        let before = sessions.len();
        sessions.retain(|_, s| s.expires_at > now);
        before - sessions.len()
    }

    /// Number of live (possibly expired-but-unswept) sessions.
    pub fn len(&self) -> usize {
        self.sessions.read().len()
    }

    /// True if no sessions are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_verify() {
        let store = PasswordStore::new();
        assert!(store.create_user("alice", "hunter2"));
        assert!(store.verify("alice", "hunter2"));
        assert!(!store.verify("alice", "hunter3"));
        assert!(!store.verify("bob", "hunter2"));
    }

    #[test]
    fn duplicate_user_rejected() {
        let store = PasswordStore::new();
        assert!(store.create_user("alice", "a"));
        assert!(!store.create_user("alice", "b"));
        // Original password still works.
        assert!(store.verify("alice", "a"));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn change_password_requires_old() {
        let store = PasswordStore::new();
        store.create_user("alice", "old");
        assert!(!store.change_password("alice", "wrong", "new"));
        assert!(store.verify("alice", "old"));
        assert!(store.change_password("alice", "old", "new"));
        assert!(store.verify("alice", "new"));
        assert!(!store.verify("alice", "old"));
    }

    #[test]
    fn same_password_different_users_different_verifiers() {
        // Salting: identical passwords must not produce identical
        // verifiers. We can't see the verifiers directly, so test via the
        // public API by ensuring per-user salts exist (verify isolation).
        let store = PasswordStore::new();
        store.create_user("a", "pw");
        store.create_user("b", "pw");
        assert!(store.verify("a", "pw"));
        assert!(store.verify("b", "pw"));
    }

    #[test]
    fn session_lifecycle() {
        let mgr = SessionManager::new();
        let token = mgr.login("alice");
        assert_eq!(mgr.validate(&token), Some("alice".to_string()));
        assert!(mgr.logout(&token));
        assert_eq!(mgr.validate(&token), None);
        assert!(!mgr.logout(&token));
    }

    #[test]
    fn sessions_expire() {
        let mgr = SessionManager::with_ttl(Duration::from_millis(10));
        let token = mgr.login("alice");
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(mgr.validate(&token), None);
    }

    #[test]
    fn sweep_removes_expired_only() {
        let mgr = SessionManager::with_ttl(Duration::from_millis(10));
        let _stale = mgr.login("old");
        std::thread::sleep(Duration::from_millis(25));
        // New session created after expiry of the first. Same TTL, so it's
        // still valid immediately.
        let fresh = mgr.login("new");
        let removed = mgr.sweep();
        assert_eq!(removed, 1);
        assert_eq!(mgr.validate(&fresh), Some("new".to_string()));
        assert_eq!(mgr.len(), 1);
    }

    #[test]
    fn tokens_are_unique_per_login() {
        let mgr = SessionManager::new();
        let t1 = mgr.login("alice");
        let t2 = mgr.login("alice");
        assert_ne!(t1, t2);
        // Both concurrently valid (the paper's contributor may be logged
        // in from phone and desktop).
        assert_eq!(mgr.validate(&t1), Some("alice".to_string()));
        assert_eq!(mgr.validate(&t2), Some("alice".to_string()));
    }

    #[test]
    fn forged_tokens_rejected() {
        let mgr = SessionManager::new();
        mgr.login("alice");
        assert_eq!(mgr.validate(&"0".repeat(64)), None);
        assert_eq!(mgr.validate(""), None);
    }
}
