//! # vamana-replica
//!
//! A log-shipping read replica for the VAMANA server. The replica
//! connects to a primary's `REPLICATE <from_lsn>` feed, persists every
//! received WAL frame to its *own* write-ahead log under the primary's
//! LSNs, replays committed batches into a local page file through the
//! same recovery path a crash would use, and serves read-only
//! `QUERY`/`EXPLAIN`/`ANALYZE`/`LAG` traffic through a normal
//! [`vamana_server::Server`] marked with [`ReplicaRole`].
//!
//! Durability composes: because frames land in the local WAL before they
//! touch pages, a `kill -9` mid-stream loses nothing committed — on
//! restart the store recovers to its last applied LSN and the sync loop
//! resumes the feed from exactly there. When the resume LSN has aged out
//! of the primary's retention ring, the primary ships its store's image
//! (pages, blob heap and catalog, [`vamana_mass::image`]); the replica
//! writes it into fresh files and opens it as a restart opens a store, so
//! its keys are the primary's and its log continues from the snapshot
//! LSN, and streaming continues.
//!
//! Reconnects use exponential backoff between [`ReplicaConfig::backoff_base`]
//! and [`ReplicaConfig::backoff_max`]; liveness comes from the primary's
//! heartbeat frames (empty payload, carrying its last committed LSN)
//! against [`ReplicaConfig::read_timeout`].

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vamana_core::{Engine, SharedEngine};
use vamana_mass::image::{is_end, IMAGE_PART_MAX};
use vamana_mass::{verify_frame, FsyncPolicy, MassStore, WalRecord, FRAME_HEADER_LEN};
use vamana_server::event::read_line_capped;
use vamana_server::{ReplicaRole, ReplicaStatus, Server, ServerConfig, ServerHandle};

/// Everything a replica needs to start.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Primary address, e.g. `127.0.0.1:4050`.
    pub primary: String,
    /// Address the replica's read-only server binds (port 0 = ephemeral).
    pub listen: String,
    /// Path of the replica's page file (`<data>.wal` sidecar appears
    /// next to it). Reopened if it exists, created otherwise.
    pub data: PathBuf,
    /// Buffer-pool capacity of the local store.
    pub capacity: usize,
    /// Fsync policy of the local WAL.
    pub fsync: FsyncPolicy,
    /// First reconnect delay.
    pub backoff_base: Duration,
    /// Reconnect delay cap.
    pub backoff_max: Duration,
    /// Feed read timeout: with primary heartbeats every ~200ms, tripping
    /// this means the primary is gone and the sync loop reconnects.
    pub read_timeout: Duration,
    /// Local WAL depth (records) that triggers a checkpoint, keeping
    /// restart replay short.
    pub checkpoint_depth: u64,
    /// Base configuration of the read-only server (the replica role is
    /// filled in by [`Replica::start`]).
    pub server: ServerConfig,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            primary: "127.0.0.1:4050".into(),
            listen: "127.0.0.1:0".into(),
            data: PathBuf::from("replica.mass"),
            capacity: 4096,
            fsync: FsyncPolicy::EveryN(64),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            read_timeout: Duration::from_secs(3),
            checkpoint_depth: 4096,
            server: ServerConfig::default(),
        }
    }
}

/// A running replica: sync loop plus read-only server.
pub struct ReplicaHandle {
    server: Option<ServerHandle>,
    status: Arc<ReplicaStatus>,
    stop: Arc<AtomicBool>,
    conn: Arc<Mutex<Option<TcpStream>>>,
    sync_thread: Option<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl ReplicaHandle {
    /// Address of the read-only query server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live sync counters (shared with the server's `LAG`/`STATS`).
    pub fn status(&self) -> &Arc<ReplicaStatus> {
        &self.status
    }

    /// LSN of the last commit applied locally.
    pub fn applied_lsn(&self) -> u64 {
        self.status.applied_lsn.load(Ordering::Relaxed)
    }

    /// Stops the sync loop and the server, joining both.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(conn) = self.conn.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.sync_thread.take() {
            let _ = t.join();
        }
        if let Some(s) = self.server.take() {
            s.stop();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

struct SyncCtx {
    config: ReplicaConfig,
    engine: Arc<SharedEngine>,
    status: Arc<ReplicaStatus>,
    stop: Arc<AtomicBool>,
    conn: Arc<Mutex<Option<TcpStream>>>,
}

/// The replica runtime.
pub struct Replica;

impl Replica {
    /// Opens (or creates) the local store, binds the read-only server,
    /// and spawns the sync loop.
    pub fn start(config: ReplicaConfig) -> std::io::Result<ReplicaHandle> {
        let store = if config.data.exists() {
            // Existing stores keep the format recorded in their catalog.
            MassStore::open_durable(&config.data, config.capacity, config.fsync)
        } else {
            MassStore::create_durable(&config.data, config.capacity, config.fsync)
        }
        .map_err(|e| std::io::Error::other(format!("open replica store: {e}")))?;
        let status = Arc::new(ReplicaStatus::default());
        status
            .applied_lsn
            .store(store.replicated_lsn(), Ordering::Relaxed);
        status
            .received_lsn
            .store(store.replicated_lsn(), Ordering::Relaxed);

        let engine = Arc::new(SharedEngine::new(Engine::new(store)));
        let mut server_config = config.server.clone();
        server_config.replica = Some(ReplicaRole {
            primary: config.primary.clone(),
            status: Arc::clone(&status),
        });
        let server = Server::bind_shared(&config.listen, Arc::clone(&engine), server_config)?;
        let handle = server.spawn()?;
        let addr = handle.addr();

        let stop = Arc::new(AtomicBool::new(false));
        let conn = Arc::new(Mutex::new(None));
        let ctx = SyncCtx {
            config,
            engine,
            status: Arc::clone(&status),
            stop: Arc::clone(&stop),
            conn: Arc::clone(&conn),
        };
        let sync_thread = std::thread::Builder::new()
            .name("vamana-replica-sync".into())
            .spawn(move || sync_loop(ctx))?;

        Ok(ReplicaHandle {
            server: Some(handle),
            status,
            stop,
            conn,
            sync_thread: Some(sync_thread),
            addr,
        })
    }
}

/// Connect → catch up → stream, with exponential backoff on any error.
fn sync_loop(ctx: SyncCtx) {
    let mut backoff = ctx.config.backoff_base;
    while !ctx.stop.load(Ordering::SeqCst) {
        match follow_once(&ctx) {
            Ok(()) => break, // only a stop request exits cleanly
            Err(_) if ctx.stop.load(Ordering::SeqCst) => break,
            Err(_) => {
                ctx.status.connected.store(false, Ordering::Relaxed);
                ctx.status.reconnects.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ctx.config.backoff_max);
            }
        }
    }
    ctx.status.connected.store(false, Ordering::Relaxed);
}

fn proto_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

/// One feed session: handshake (resuming from the locally applied LSN),
/// optional snapshot install, then the frame loop until error or stop.
fn follow_once(ctx: &SyncCtx) -> std::io::Result<()> {
    let applied = ctx.engine.read().store().replicated_lsn();
    let stream = TcpStream::connect(&ctx.config.primary)?;
    stream.set_read_timeout(Some(ctx.config.read_timeout))?;
    *ctx.conn.lock().unwrap_or_else(|p| p.into_inner()) = Some(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    writeln!(writer, "REPLICATE {applied}")?;
    writer.flush()?;

    let mut line = String::new();
    read_line_capped(&mut reader, &mut line)?;
    let line = line.trim_end();
    let Some(rest) = line.strip_prefix("OK replicate ") else {
        return Err(proto_err(format!("unexpected handshake: {line}")));
    };
    let mut snapshot = false;
    let mut lsn = None;
    for token in rest.split(' ') {
        if let Some(v) = token.strip_prefix("snapshot=") {
            snapshot = v == "1";
        } else if let Some(v) = token.strip_prefix("lsn=") {
            lsn = v.parse::<u64>().ok();
        }
    }

    if snapshot {
        let snap = lsn.ok_or_else(|| proto_err(format!("no snapshot LSN in: {line}")))?;
        install_snapshot(ctx, &mut reader, snap)?;
    }
    ctx.status.connected.store(true, Ordering::Relaxed);

    // Frame loop: buffer data records, apply at commit granularity.
    let mut batch: Vec<(u64, WalRecord)> = Vec::new();
    loop {
        if ctx.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (lsn, payload) = match read_frame(&mut reader, usize::MAX) {
            Err(_) if ctx.stop.load(Ordering::SeqCst) => return Ok(()),
            frame => frame?,
        };
        ctx.status.frames.fetch_add(1, Ordering::Relaxed);
        if payload.is_empty() {
            // Heartbeat: the primary's last committed LSN, never
            // persisted.
            ctx.status.primary_last_lsn.store(lsn, Ordering::Relaxed);
            continue;
        }
        ctx.status.received_lsn.store(lsn, Ordering::Relaxed);
        ctx.status
            .primary_last_lsn
            .fetch_max(lsn, Ordering::Relaxed);
        let rec = WalRecord::decode(&payload)
            .ok_or_else(|| proto_err(format!("frame {lsn} carries an undecodable record")))?;
        let is_commit = matches!(rec, WalRecord::Commit);
        batch.push((lsn, rec));
        if is_commit {
            apply_batch(ctx, &batch)?;
            batch.clear();
        }
    }
}

/// Reads one frame whose payload is at most `max` bytes and checks its
/// CRC.
fn read_frame(reader: &mut impl Read, max: usize) -> std::io::Result<(u64, Vec<u8>)> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    reader.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let lsn = u64::from_le_bytes(header[4..12].try_into().unwrap());
    let crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if len > max {
        return Err(proto_err(format!("frame {lsn} of {len} bytes, over {max}")));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    if !verify_frame(lsn, &payload, crc) {
        return Err(proto_err(format!("frame {lsn} failed CRC, resyncing")));
    }
    Ok((lsn, payload))
}

/// Applies one committed batch under the engine write lock and
/// checkpoints when the local log grows past the configured depth.
fn apply_batch(ctx: &SyncCtx, batch: &[(u64, WalRecord)]) -> std::io::Result<()> {
    let commit_lsn = batch.last().map(|(l, _)| *l).unwrap_or(0);
    let mut engine = ctx.engine.write();
    engine
        .apply_replicated(batch)
        .map_err(|e| proto_err(format!("apply batch at {commit_lsn}: {e}")))?;
    if engine.store().wal_stats().depth >= ctx.config.checkpoint_depth {
        engine
            .checkpoint()
            .map_err(|e| proto_err(format!("replica checkpoint: {e}")))?;
    }
    drop(engine);
    ctx.status.applied_lsn.store(commit_lsn, Ordering::Relaxed);
    Ok(())
}

/// Reads the primary's store image (frames at the snapshot LSN, up to
/// its end part) and installs it in place of the local store: written
/// into fresh files and opened as a restart opens a store, its log
/// starting after the snapshot LSN (the image's catalog records it). The
/// swap runs under the engine write lock so no query observes it;
/// [`Engine::replace_store`] clears the query cache there (an opened
/// store restarts document generations at zero).
fn install_snapshot(ctx: &SyncCtx, reader: &mut impl Read, snap_lsn: u64) -> std::io::Result<()> {
    let mut parts = Vec::new();
    loop {
        let (lsn, part) = read_frame(reader, IMAGE_PART_MAX)?;
        if lsn != snap_lsn {
            return Err(proto_err(format!(
                "image frame at {lsn}, snapshot at {snap_lsn}"
            )));
        }
        let end = is_end(&part);
        parts.push(part);
        if end {
            break;
        }
    }

    let mut engine = ctx.engine.write();
    let mut fresh = MassStore::install_durable(
        &ctx.config.data,
        ctx.config.capacity,
        ctx.config.fsync,
        &parts,
    )
    .map_err(|e| proto_err(format!("install snapshot at {snap_lsn}: {e}")))?;
    // Re-attach a ring so this replica can cascade to its own followers.
    fresh
        .attach_replication(ctx.config.server.repl_retain)
        .map_err(|e| proto_err(format!("attach ring: {e}")))?;
    engine
        .replace_store(fresh)
        .map_err(|e| proto_err(format!("install snapshot: {e}")))?;
    drop(engine);
    ctx.status.snapshots.fetch_add(1, Ordering::Relaxed);
    ctx.status.applied_lsn.store(snap_lsn, Ordering::Relaxed);
    ctx.status.received_lsn.store(snap_lsn, Ordering::Relaxed);
    ctx.status
        .primary_last_lsn
        .fetch_max(snap_lsn, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A primary that answers the handshake with a line that never ends
    /// is dropped at the line cap, not read into memory to the end.
    #[test]
    fn an_endless_handshake_line_is_an_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let primary = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Take the handshake first: a socket closed with unread bytes
            // resets the connection, and the reset may reach the replica
            // before it has read up to the cap.
            read_line_capped(&mut BufReader::new(&stream), &mut String::new()).unwrap();
            let _ = stream.write_all(&vec![b'a'; vamana_server::event::MAX_REPLY_LINE + 1]);
        });
        let dir = std::env::temp_dir().join(format!("vamana-replica-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = ReplicaConfig {
            primary,
            data: dir.join("r.mass"),
            fsync: FsyncPolicy::Never,
            ..ReplicaConfig::default()
        };
        let store = MassStore::create_durable(&config.data, 64, config.fsync).unwrap();
        let ctx = SyncCtx {
            config,
            engine: Arc::new(SharedEngine::new(Engine::new(store))),
            status: Arc::new(ReplicaStatus::default()),
            stop: Arc::new(AtomicBool::new(false)),
            conn: Arc::new(Mutex::new(None)),
        };
        let err = follow_once(&ctx).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        peer.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
