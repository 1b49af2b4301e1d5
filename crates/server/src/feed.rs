//! Primary-side replication feed: turns one accepted connection into a
//! one-way stream of committed WAL frames.
//!
//! ## Wire grammar
//!
//! The follower sends `REPLICATE <from_lsn>` on the line protocol; the
//! feed answers one handshake line and then switches to binary frames:
//!
//! ```text
//! OK replicate snapshot=0 lsn=<primary_last>     → frames follow
//! OK replicate snapshot=1 lsn=<snap>             → the store's image first,
//!                                                  as frames at <snap>, then
//!                                                  frames after <snap>
//! ```
//!
//! Frames are byte-identical to the on-disk WAL framing
//! (`[len:u32][lsn:u64][crc:u32][payload]`, CRC-32 over `lsn‖payload`) so
//! the follower appends them to its own log without re-framing. A frame
//! with an *empty payload* is a heartbeat: its LSN is the primary's last
//! committed LSN, it is never persisted, and it flows whenever the feed
//! has been idle for [`crate::ServerConfig::feed_heartbeat`].
//!
//! The snapshot path triggers when `from_lsn` has aged out of the
//! retention ring. The image ([`vamana_mass::MassStore::image`]: every
//! page, the blob heap and the catalog, one page or chunk per frame) is
//! read under the engine read lock, one consistent cut at `snap`, and
//! sent after the lock is released, so a follower that stops reading
//! holds off no writer. The follower installs it and opens it as a
//! restart opens a store: its keys are the primary's, whatever writes
//! made them.

use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use vamana_mass::{encode_frame, ReplicationLog};

use crate::Shared;

/// Frames shipped per batch before flushing.
const FEED_BATCH: usize = 512;

/// Serves one `REPLICATE <from>` connection until the client hangs up,
/// the server stops, or the follower falls below retention mid-stream
/// (it will reconnect and snapshot).
pub(crate) fn serve_feed(
    stream: TcpStream,
    shared: &Arc<Shared>,
    from: u64,
) -> std::io::Result<()> {
    let log = shared.engine.read().store().replication_log();
    let Some(log) = log else {
        let mut w = stream;
        writeln!(w, "ERR repl store is not durable, nothing to replicate")?;
        return w.flush();
    };
    shared.feeds.fetch_add(1, Ordering::Relaxed);
    let result = feed_loop(stream, shared, &log, from);
    shared.feeds.fetch_sub(1, Ordering::Relaxed);
    result
}

fn feed_loop(
    stream: TcpStream,
    shared: &Arc<Shared>,
    log: &ReplicationLog,
    mut from: u64,
) -> std::io::Result<()> {
    let mut writer = BufWriter::new(stream);
    if log.frames_after(from, 1).is_none() {
        // `from` predates retention: ship the store's image, then stream
        // from the snapshot LSN.
        let (snap, image) = {
            let engine = shared.engine.read();
            (engine.store().replicated_lsn(), engine.store().image())
        };
        let image = image.map_err(|e| std::io::Error::other(e.to_string()))?;
        writeln!(writer, "OK replicate snapshot=1 lsn={snap}")?;
        for part in &image {
            writer.write_all(&encode_frame(snap, part))?;
        }
        from = snap;
    } else {
        writeln!(
            writer,
            "OK replicate snapshot=0 lsn={}",
            log.stats().last_lsn
        )?;
    }
    writer.flush()?;
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return Ok(());
        }
        let Some(frames) = log.frames_after(from, FEED_BATCH) else {
            // Retention overtook this follower while the feed was
            // backed up; closing makes it reconnect into the snapshot
            // path above.
            return Ok(());
        };
        if frames.is_empty() {
            if !log.wait_beyond(from, shared.config.feed_heartbeat) {
                let last = log.stats().last_lsn.max(from);
                writer.write_all(&encode_frame(last, &[]))?;
                writer.flush()?;
            }
            continue;
        }
        for (lsn, payload) in frames {
            writer.write_all(&encode_frame(lsn, &payload))?;
            from = lsn;
        }
        writer.flush()?;
    }
}
