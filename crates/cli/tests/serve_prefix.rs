//! Every image the serve daemon writes during ingest is a stream prefix.
//!
//! A `SNAPSHOT` records the edges applied so far, `E`, and a resume from
//! it skips `E` edges of the trace. So the image must hold exactly the
//! first `E` edges: a chunk read after one that is still unapplied must
//! not be in it. Eight writers on a small chunk make that interleaving
//! common. FreeBS bits do not depend on arrival order, so each image's
//! `ARRY` section must equal that of a sketch fed exactly the first `E`
//! edges.

use freesketch::snapshot::AnySketch;
use freesketch::{save_snapshot, ShardedFreeBS};
use freesketch_cli::serve::{spawn, ServeConfig};
use graphstream::snapshot::{find_section, read_sections};
use graphstream::{CycleSource, Edge};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

const EDGES: u64 = 600_000;
const USERS: u64 = 64;
/// `EDGES / MEMORY_BITS` ≈ 2.3 keeps about a tenth of the array unset at
/// the end, so a chunk missing from an image leaves bits of its own unset.
const MEMORY_BITS: usize = 1 << 18;
const SHARDS: usize = 8;
const WRITERS: usize = 8;
const CHUNK: usize = 1024;
const SEED: u64 = 42;
const MIN_IMAGES: usize = 50;
/// Daemon lives allowed to collect `MIN_IMAGES` images taken during
/// ingest. A life yields a few; slow disks or a slow build yield fewer.
const MAX_LIVES: usize = 200;

/// Distinct pairs, so every edge can set a bit of its own.
fn trace() -> Vec<Edge> {
    (0..EDGES)
        .map(|i| Edge::new(hashkit::splitmix64(i) % USERS, i))
        .collect()
}

fn sketch() -> AnySketch {
    AnySketch::from(ShardedFreeBS::new(MEMORY_BITS, SHARDS, SEED))
}

/// Runs one daemon over the trace and snapshots it back to back until an
/// image holds the whole trace. Returns the images taken before that, as
/// `(E, path)` in the order taken.
fn one_life(dir: &Path, life: usize) -> Vec<(u64, PathBuf)> {
    let handle = spawn(
        sketch(),
        Box::new(CycleSource::new(trace(), 1)),
        ServeConfig {
            writers: WRITERS,
            chunk: CHUNK,
            ..ServeConfig::default()
        },
    )
    .expect("spawn");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut images = Vec::new();
    loop {
        let path = dir.join(format!("{life}-{}.fsnp", images.len()));
        // One write per request: a line split over several small writes
        // waits on the peer's delayed ACK.
        writer
            .write_all(format!("SNAPSHOT {}\n", path.display()).as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let applied: u64 = reply
            .trim_end()
            .strip_prefix(&format!("OK snapshot {} edges=", path.display()))
            .unwrap_or_else(|| panic!("SNAPSHOT replied `{reply}`"))
            .parse()
            .expect("edges is an integer");
        if applied == EDGES {
            std::fs::remove_file(&path).ok();
            break;
        }
        images.push((applied, path));
    }
    handle.shutdown();
    let report = handle.join().expect("join");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    images
}

/// The `ARRY` section (every shard's bit words) of a snapshot.
fn bit_words(bytes: &[u8]) -> Vec<u64> {
    let sections = read_sections(&mut &bytes[..]).expect("a whole snapshot");
    let arry = find_section(&sections, b"ARRY").expect("ARRY section");
    arry.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
        .collect()
}

#[test]
fn every_snapshot_during_ingest_is_a_stream_prefix() {
    let dir = std::env::temp_dir().join(format!("freesketch-serve-prefix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut images = Vec::new();
    let mut lives = 0;
    while images.len() < MIN_IMAGES {
        assert!(
            lives < MAX_LIVES,
            "only {} snapshots landed during ingest in {lives} daemon lives",
            images.len()
        );
        images.extend(one_life(&dir, lives));
        lives += 1;
    }

    // Feed the reference incrementally, in order of E.
    images.sort_by_key(|&(applied, _)| applied);
    let pairs: Vec<(u64, u64)> = trace().iter().map(|e| e.pair()).collect();
    let reference = sketch();
    let ingest = reference.as_concurrent().expect("a sharded kind");
    let mut fed = 0usize;
    let mut bad = Vec::new();
    for (applied, path) in &images {
        let applied = usize::try_from(*applied).expect("fits");
        ingest.ingest_batch(&pairs[fed..applied]);
        fed = applied;
        let mut want = Vec::new();
        save_snapshot(&mut want, &reference, 0).expect("in memory");
        let want = bit_words(&want);
        let got = bit_words(&std::fs::read(path).expect("image"));
        let extra: u32 = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (g & !w).count_ones())
            .sum();
        let missing: u32 = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (w & !g).count_ones())
            .sum();
        if extra + missing > 0 {
            bad.push(format!(
                "E = {applied}: {extra} bits past it, {missing} missing"
            ));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        bad.is_empty(),
        "{} of {} images ({lives} daemon lives) are not the prefix they record: {bad:?}",
        bad.len(),
        images.len()
    );
}
