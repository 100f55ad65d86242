//! Satellite: the disk tier of [`TraceStore`] is invisible to results.
//!
//! Every simulation number must be a pure function of the plan: whether
//! a store is memory-only, writing a cold cache directory, hydrating a
//! warm one, or recovering from a corrupted artifact file may change
//! wall-clock time, never a prediction. These tests drive the same plan
//! through all four store states and require bit-identical
//! [`ResultSet`]s, and pin the artifact lifecycle (atomic writes,
//! re-persist on deepening, footprint reporting) from the outside —
//! including what a re-persist splices from the previous file, what it
//! re-encodes, and which foreign sections it carries.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tlabp::core::bht::BhtSignature;
use tlabp::core::config::SchemeConfig;
use tlabp::core::BhtConfig;
use tlabp::sim::engine::execute;
use tlabp::sim::plan::{ExecPath, Job, Plan};
use tlabp::sim::{StreamKey, TraceStore};
use tlabp::trace::io::{
    artifact_header, checksum, chunk_bytes_from_env, encode_section, read_artifacts, walk_artifact,
    write_artifact_atomic, write_artifacts_chunked, ArtifactForm, SectionTag, CHUNK_BYTES_ENV,
    DEFAULT_CHUNK_BYTES, MAGIC, MIN_CHUNK_BYTES,
};
use tlabp::trace::PatternStream;
use tlabp::workloads::{Benchmark, DataSet};

/// A unique scratch cache directory per test (tests run concurrently in
/// one process; a shared dir would interleave lifecycles).
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlabp-disk-cache-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A plan exercising every persisted form on one benchmark: replay jobs
/// (pattern streams, two distinct keys), a fused job (interned stream)
/// and a context-switch job (its switch schedule reads the full trace).
fn plan() -> Plan {
    let li = Benchmark::by_name("li").expect("li exists");
    [
        Job::scheme(SchemeConfig::pag(8), li),
        Job::scheme(SchemeConfig::pag(8).with_bht(BhtConfig::Ideal), li),
        Job::scheme(SchemeConfig::gag(10), li).with_path(ExecPath::Fused),
        Job::scheme(SchemeConfig::pag(8).with_context_switch(true), li),
    ]
    .into_iter()
    .collect()
}

fn artifact_paths(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "tlabp"))
        .collect();
    paths.sort();
    paths
}

/// Memory-only, cold-disk and warm-disk executions produce bit-identical
/// result sets, and the artifact directory holds exactly the benchmark's
/// two files (one per data set would require training; this plan touches
/// only the testing trace).
#[test]
fn disk_enabled_and_disabled_agree_bit_for_bit() {
    let dir = scratch_dir("agree");
    let plan = plan();

    let memory_out = execute(&plan, &TraceStore::new());
    let cold_out = execute(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, cold_out, "writing the disk cache changed results");

    let paths = artifact_paths(&dir);
    assert_eq!(paths.len(), 1, "one artifact per (benchmark, data set): {paths:?}");
    assert!(
        paths[0].file_name().unwrap().to_str().unwrap().starts_with("li-testing-v3-"),
        "artifact name carries benchmark, data set and version: {paths:?}"
    );

    let warm_out = execute(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, warm_out, "hydrating from the disk cache changed results");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm store hydrates every form without regenerating: the second
/// store's streams match the first's but are distinct allocations, and a
/// pure read leaves the artifact bytes untouched.
#[test]
fn warm_store_hydrates_all_forms_from_disk() {
    let dir = scratch_dir("hydrate");
    let li = Benchmark::by_name("li").expect("li exists");

    let cold = TraceStore::with_cache_dir(&dir);
    let _ = execute(&plan(), &cold);
    let trace = cold.get(li, DataSet::Testing);
    let interned = cold.get_interned(li, DataSet::Testing);
    let bytes_before = std::fs::read(&artifact_paths(&dir)[0]).expect("artifact exists");

    let warm = TraceStore::with_cache_dir(&dir);
    let warm_trace = warm.get(li, DataSet::Testing);
    let warm_interned = warm.get_interned(li, DataSet::Testing);
    assert_eq!(*warm_trace, *trace);
    assert_eq!(*warm_interned, *interned);
    assert!(!Arc::ptr_eq(&warm_trace, &trace), "fresh store holds its own hydrated copy");

    let bytes_after = std::fs::read(&artifact_paths(&dir)[0]).expect("artifact exists");
    assert_eq!(bytes_before, bytes_after, "hydration must not rewrite the artifact");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption can cost time, never correctness: a store pointed at a
/// cache whose artifact was bit-flipped (or truncated) regenerates and
/// still matches the memory-only run bit for bit — and its re-persist
/// repairs the file for the next store.
#[test]
fn corrupted_artifacts_fall_back_to_regeneration() {
    let dir = scratch_dir("corrupt");
    let plan = plan();
    let memory_out = execute(&plan, &TraceStore::new());
    let _ = execute(&plan, &TraceStore::with_cache_dir(&dir));
    let path = artifact_paths(&dir).remove(0);
    let good = std::fs::read(&path).expect("artifact exists");

    // Flip one payload bit.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&path, &flipped).expect("write corrupted artifact");
    let flipped_out = execute(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, flipped_out, "bit-flipped cache changed results");
    assert_eq!(
        std::fs::read(&path).expect("artifact exists"),
        good,
        "regeneration re-persists a clean artifact"
    );

    // Truncate mid-file.
    std::fs::write(&path, &good[..mid]).expect("write truncated artifact");
    let truncated_out = execute(&plan, &TraceStore::with_cache_dir(&dir));
    assert_eq!(memory_out, truncated_out, "truncated cache changed results");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache_bytes` reports the on-disk footprint: the `disk` component
/// equals the artifact file sizes, rides into the total, and stays zero
/// for memory-only stores.
#[test]
fn cache_bytes_reports_disk_footprint() {
    let dir = scratch_dir("footprint");
    let store = TraceStore::with_cache_dir(&dir);
    assert_eq!(store.cache_bytes().disk, 0, "empty cache dir has no footprint");

    let _ = execute(&plan(), &store);
    let on_disk: usize = artifact_paths(&dir)
        .iter()
        .map(|path| std::fs::metadata(path).expect("artifact exists").len() as usize)
        .sum();
    let bytes = store.cache_bytes();
    assert!(on_disk > 0);
    assert_eq!(bytes.disk, on_disk);
    assert_eq!(bytes.total(), bytes.packed + bytes.interned + bytes.streams + bytes.disk);

    let memory = TraceStore::new();
    let _ = execute(&plan(), &memory);
    assert_eq!(memory.cache_bytes().disk, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A container header naming version 2 with a section length near
/// `u64::MAX`: the shape of the retired whole-section format, whose
/// reader overflowed on exactly this length.
fn v2_header_with_overflowing_section(fingerprint: u64) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&2u16.to_le_bytes());
    bytes.extend_from_slice(&fingerprint.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(1);
    bytes.extend_from_slice(&(u64::MAX - 3).to_le_bytes());
    bytes.extend_from_slice(&[0; 16]);
    bytes
}

/// The disk tier reads and writes v3 only. A v2-named file is never
/// opened, and a v3-named file whose header says version 2 (here with a
/// section length that overflows a naive bounds check) is unreadable
/// like any other corrupt file: results stay bit-identical and the next
/// persist replaces it with a clean v3 container.
#[test]
fn other_container_versions_are_ignored_and_rewritten_as_v3() {
    let dir = scratch_dir("crossver");
    let plan = plan();
    let memory_out = execute(&plan, &TraceStore::new());
    let _ = execute(&plan, &TraceStore::with_cache_dir(&dir));
    let v3_path = artifact_paths(&dir).remove(0);
    let good = std::fs::read(&v3_path).expect("artifact exists");

    let li = Benchmark::by_name("li").expect("li exists");
    let bad = v2_header_with_overflowing_section(li.fingerprint(DataSet::Testing));
    let name = v3_path.file_name().unwrap().to_str().unwrap().replace("-v3-", "-v2-");
    let v2_path = v3_path.with_file_name(name);
    std::fs::write(&v2_path, &bad).expect("write v2-named artifact");
    std::fs::write(&v3_path, &bad).expect("write v2 header under the v3 name");

    // Touch the slot on this thread first: hydration runs here, so a
    // decoder panic fails this test rather than a pool worker.
    let store = TraceStore::with_cache_dir(&dir);
    let _ = store.get(li, DataSet::Testing);
    assert_eq!(execute(&plan, &store), memory_out, "a v2 header changed results");
    assert_eq!(
        std::fs::read(&v3_path).expect("artifact exists"),
        good,
        "the next persist writes a clean v3 artifact"
    );
    assert_eq!(std::fs::read(&v2_path).expect("v2-named file"), bad, "v2 name never touched");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression test for the disk-tier write race: several stores (as in
/// several daemon connections or concurrent driver processes) target the
/// same cache directory and the same benchmark, each deriving a
/// *different* pattern stream. The advisory artifact lock plus
/// merge-on-persist must converge the file to the union of every
/// writer's sections — not last-writer-wins over the whole artifact —
/// and leave no `.lock` or `.tmp-*` residue behind.
#[test]
fn concurrent_writers_merge_into_one_artifact() {
    let dir = scratch_dir("race");
    let li = Benchmark::by_name("li").expect("li exists");
    let widths = [6u32, 8, 10, 12];
    let plan_for =
        |k: u32| -> Plan { [Job::scheme(SchemeConfig::gag(k), li)].into_iter().collect() };

    // Reference outcomes from hermetic memory-only stores.
    let expected: Vec<_> =
        widths.iter().map(|&k| execute(&plan_for(k), &TraceStore::new())).collect();

    // Four threads, four *distinct* store instances, one directory: each
    // persists the shared li-testing artifact concurrently with a
    // different stream key inside.
    let outputs: Vec<_> = widths
        .iter()
        .map(|&k| {
            let dir = dir.clone();
            std::thread::spawn(move || execute(&plan_for(k), &TraceStore::with_cache_dir(&dir)))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|handle| handle.join().expect("writer thread panicked"))
        .collect();
    for (output, expected) in outputs.iter().zip(&expected) {
        assert_eq!(output, expected, "racing the disk tier changed results");
    }

    // Exactly the artifact survives: no stale advisory locks, no
    // orphaned temp files.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| !(name.starts_with("li-testing-v3-") && name.ends_with(".tlabp")))
        .collect();
    assert!(leftovers.is_empty(), "lock/temp residue after racing writers: {leftovers:?}");
    let paths = artifact_paths(&dir);
    assert_eq!(paths.len(), 1, "all writers share one artifact: {paths:?}");

    // The surviving file holds the union: a warm store replays all four
    // plans purely from hydration, and since nothing new is derived the
    // artifact bytes stay untouched.
    let bytes_before = std::fs::read(&paths[0]).expect("artifact exists");
    let warm = TraceStore::with_cache_dir(&dir);
    for (&k, expected) in widths.iter().zip(&expected) {
        assert_eq!(&execute(&plan_for(k), &warm), expected, "hydrated union changed results");
    }
    let bytes_after = std::fs::read(&paths[0]).expect("artifact exists");
    assert_eq!(bytes_before, bytes_after, "a complete union artifact must not be rewritten");

    let _ = std::fs::remove_dir_all(&dir);
}

/// One small slot for the persist tests: trace sections span several
/// chunks at [`MIN_CHUNK_BYTES`], and so do its pattern streams.
fn small_slot() -> (&'static Benchmark, DataSet) {
    (Benchmark::by_name("doduc").expect("doduc exists"), DataSet::Training)
}

/// Stream keys in derivation order; the later ones sort *before* the
/// earlier ones, so splicing must interleave new sections with old.
fn stream_keys() -> [StreamKey; 4] {
    [
        StreamKey::Global { history_bits: 12 },
        StreamKey::Bht(BhtSignature { config: BhtConfig::PAPER_DEFAULT, history_bits: 8 }),
        StreamKey::Global { history_bits: 6 },
        StreamKey::Bht(BhtSignature { config: BhtConfig::Ideal, history_bits: 4 }),
    ]
}

/// One `write_artifacts_chunked` call over every form `store` holds for
/// the slot plus the given streams (sorted by key, as persists write
/// them).
fn whole_write(
    store: &TraceStore,
    (bench, set): (&'static Benchmark, DataSet),
    streams: &[(Vec<u8>, Arc<PatternStream>)],
    chunk_bytes: usize,
) -> Vec<u8> {
    let mut refs: Vec<(Vec<u8>, &PatternStream)> =
        streams.iter().map(|(key, stream)| (key.clone(), stream.as_ref())).collect();
    refs.sort_by(|a, b| a.0.cmp(&b.0));
    write_artifacts_chunked(
        bench.fingerprint(set),
        Some(&store.get(bench, set)),
        Some(&store.get_packed(bench, set)),
        Some(&store.get_interned(bench, set)),
        &refs,
        chunk_bytes,
    )
}

/// The byte range of `tag`'s section in a v3 container.
fn section_range(bytes: &[u8], tag: &SectionTag) -> std::ops::Range<usize> {
    let layout = walk_artifact(bytes).expect("v3 container");
    layout.sections.into_iter().find(|(t, _)| t == tag).expect("section present").1
}

/// Makes one encoded packed or stream section lie: its head declares one
/// item more than its chunks hold, and the head checksum is re-stamped,
/// so every checksum still verifies and only a decode can tell.
fn overstate_item_count(section: &mut [u8]) {
    let meta_len = u32::from_le_bytes(section[1..5].try_into().unwrap()) as usize;
    // The item count is the whole packed metadata, and the last eight
    // bytes of a stream's.
    let count_at = if section[0] == 2 { 5 } else { 5 + meta_len - 8 };
    let count = u64::from_le_bytes(section[count_at..count_at + 8].try_into().unwrap());
    section[count_at..count_at + 8].copy_from_slice(&(count + 1).to_le_bytes());
    let nchunks_at = 5 + meta_len;
    let nchunks = u32::from_le_bytes(section[nchunks_at..nchunks_at + 4].try_into().unwrap());
    let head_end = nchunks_at + 4 + 24 * nchunks as usize;
    let sum = checksum(&section[..head_end]);
    section[head_end..head_end + 8].copy_from_slice(&sum.to_le_bytes());
}

fn checked_incremental_persists(chunk_bytes: usize) {
    let dir = scratch_dir(&format!("splice-{chunk_bytes}"));
    let slot = small_slot();
    let store = TraceStore::with_cache_dir(&dir);
    let mut held = Vec::new();
    for key in stream_keys() {
        held.push((key.to_bytes(), store.get_pattern_stream(slot.0, slot.1, key)));
        let paths = artifact_paths(&dir);
        assert_eq!(paths.len(), 1);
        assert_eq!(
            std::fs::read(&paths[0]).expect("artifact exists"),
            whole_write(&store, slot, &held, chunk_bytes),
            "persist after deriving {key:?} differs from one whole write"
        );
    }
    if chunk_bytes == MIN_CHUNK_BYTES {
        let bytes = std::fs::read(&artifact_paths(&dir)[0]).expect("artifact exists");
        let tag = SectionTag::Stream(stream_keys()[0].to_bytes());
        let section = &bytes[section_range(&bytes, &tag)];
        // The chunk count follows the kind byte and the length-prefixed
        // metadata (the head layout `overstate_item_count` also parses).
        let meta_len = u32::from_le_bytes(section[1..5].try_into().unwrap()) as usize;
        let nchunks_at = 5 + meta_len;
        let chunks = u32::from_le_bytes(section[nchunks_at..nchunks_at + 4].try_into().unwrap());
        assert!(chunks > 1, "sections must span several chunks");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Incremental persist is exact: a store that derives stream keys one at
/// a time re-persists after each derivation, splicing the sections
/// already on disk and encoding only the new one, and after every step
/// the artifact equals one `write_artifacts_chunked` over the forms the
/// store then holds. The check runs at this process's chunk size and,
/// when [`CHUNK_BYTES_ENV`] is unset, again in a child test process at
/// [`MIN_CHUNK_BYTES`] (the variable is process-global, and the other
/// tests in this binary persist concurrently).
#[test]
fn incremental_persists_equal_one_whole_write() {
    checked_incremental_persists(chunk_bytes_from_env());
    if std::env::var_os(CHUNK_BYTES_ENV).is_none() {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["incremental_persists_equal_one_whole_write", "--exact", "--test-threads=1"])
            .env(CHUNK_BYTES_ENV, MIN_CHUNK_BYTES.to_string())
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "multi-chunk pass failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&child.stderr)
        );
    }
}

/// Bad bytes are never spliced. A section of the store's own whose
/// payload fails its checksum is re-encoded from memory on the next
/// persist; and when hydration rejected the file outright, even sections
/// whose checksums verify lend no bytes to the rewrite.
#[test]
fn damaged_sections_are_reencoded_not_spliced() {
    let dir = scratch_dir("damaged");
    let slot = small_slot();
    let [first, second, third, _] = stream_keys();
    let chunk_bytes = chunk_bytes_from_env();

    let store = TraceStore::with_cache_dir(&dir);
    let mut held = vec![(first.to_bytes(), store.get_pattern_stream(slot.0, slot.1, first))];
    let path = artifact_paths(&dir).remove(0);
    let good = std::fs::read(&path).expect("artifact exists");

    // Flip one payload byte of the packed section the store holds, then
    // derive a new stream: the persist must notice and re-encode it.
    let packed = section_range(&good, &SectionTag::Packed);
    let mut flipped = good.clone();
    flipped[packed.end - 1] ^= 0x20;
    std::fs::write(&path, &flipped).expect("write damaged artifact");
    held.push((second.to_bytes(), store.get_pattern_stream(slot.0, slot.1, second)));
    let rewritten = std::fs::read(&path).expect("artifact exists");
    assert_eq!(rewritten, whole_write(&store, slot, &held, chunk_bytes));
    let bundle = read_artifacts(&rewritten).expect("the rewrite decodes cleanly");
    assert!(bundle.trace.is_some() && bundle.interned.is_some());
    assert_eq!(bundle.packed.as_deref(), Some(store.get_packed(slot.0, slot.1).as_slice()));
    assert_eq!(bundle.streams.len(), 2);

    // Now a packed section whose checksums all verify but whose head
    // declares one item too many: a fresh store's hydration rejects the
    // file, so its persist re-encodes every form instead of splicing.
    let packed = section_range(&rewritten, &SectionTag::Packed);
    let mut lying = rewritten.clone();
    overstate_item_count(&mut lying[packed]);
    assert_eq!(walk_artifact(&lying).expect("v3").sections.len(), 5, "checksums verify");
    std::fs::write(&path, &lying).expect("write lying artifact");

    let fresh = TraceStore::with_cache_dir(&dir);
    held.push((third.to_bytes(), fresh.get_pattern_stream(slot.0, slot.1, third)));
    for (key, stream) in &mut held[..2] {
        *stream = fresh.get_pattern_stream(slot.0, slot.1, StreamKey::from_bytes(key).unwrap());
    }
    let repaired = std::fs::read(&path).expect("artifact exists");
    assert_eq!(repaired, whole_write(&fresh, slot, &held, chunk_bytes));
    read_artifacts(&repaired).expect("the repair decodes cleanly");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The union guarantee under splicing. A stream section another store
/// wrote (valid checksums, a form this store never held) is decoded once
/// and carried byte for byte; a foreign section that fails that decode
/// is dropped. Sections this store holds are copied as they are on disk,
/// never re-encoded: written at another chunk size, they keep it.
#[test]
fn foreign_sections_survive_and_own_sections_are_spliced() {
    let dir = scratch_dir("foreign");
    let slot = small_slot();
    let [first, second, third, fourth] = stream_keys();
    let chunk_bytes = chunk_bytes_from_env();
    let odd_chunk_bytes =
        if chunk_bytes == MIN_CHUNK_BYTES { DEFAULT_CHUNK_BYTES } else { MIN_CHUNK_BYTES };

    // Seed the file at an odd chunk size, then let store A hydrate it.
    let seed = TraceStore::new();
    let seeded = vec![(first.to_bytes(), seed.get_pattern_stream(slot.0, slot.1, first))];
    let fingerprint = slot.0.fingerprint(slot.1);
    let path = dir.join(format!("doduc-training-v3-{fingerprint:016x}.tlabp"));
    std::fs::create_dir_all(&dir).expect("create cache dir");
    std::fs::write(&path, whole_write(&seed, slot, &seeded, odd_chunk_bytes)).expect("seed");
    let a = TraceStore::with_cache_dir(&dir);
    let _ = a.get_pattern_stream(slot.0, slot.1, first);
    assert_eq!(artifact_paths(&dir), vec![path.clone()], "a pure hydration writes nothing");

    // Store B (another process, in effect) adds a stream A never sees.
    let b = TraceStore::with_cache_dir(&dir);
    let _ = b.get_pattern_stream(slot.0, slot.1, second);
    let after_b = std::fs::read(&path).expect("artifact exists");
    let foreign_tag = SectionTag::Stream(second.to_bytes());
    let foreign = after_b[section_range(&after_b, &foreign_tag)].to_vec();

    // A third writer leaves a foreign section whose checksums verify but
    // whose chunks hold one item fewer than its head declares.
    let bogus_key = fourth.to_bytes();
    let short = seed.get_pattern_stream(slot.0, slot.1, fourth);
    let mut bogus = encode_section(ArtifactForm::Stream(&bogus_key, &short), chunk_bytes);
    overstate_item_count(&mut bogus);
    let layout = walk_artifact(&after_b).expect("v3");
    let mut parts: Vec<&[u8]> = layout.sections.iter().map(|(_, r)| &after_b[r.clone()]).collect();
    parts.push(&bogus);
    write_artifact_atomic(&path, fingerprint, &parts).expect("write bogus section");

    // A derives a third stream: its persist splices its own sections at
    // the odd chunk size, carries B's section verbatim, drops the bogus
    // one, and encodes only the new stream.
    let _ = a.get_pattern_stream(slot.0, slot.1, third);
    let after_a = std::fs::read(&path).expect("artifact exists");
    assert_eq!(&after_a[section_range(&after_a, &foreign_tag)], foreign.as_slice());
    let tags: Vec<SectionTag> =
        walk_artifact(&after_a).expect("v3").sections.into_iter().map(|(t, _)| t).collect();
    assert!(!tags.contains(&SectionTag::Stream(bogus_key)), "bogus foreign section carried");

    let streams = [(first, &a), (second, &b), (third, &a)]
        .map(|(key, store)| (key.to_bytes(), store.get_pattern_stream(slot.0, slot.1, key)));
    let trace = a.get(slot.0, slot.1);
    let packed = a.get_packed(slot.0, slot.1);
    let interned = a.get_interned(slot.0, slot.1);
    let stream = |i: usize| ArtifactForm::Stream(&streams[i].0, &streams[i].1);
    let mut sections: Vec<(SectionTag, Vec<u8>)> = [
        (ArtifactForm::Trace(&trace), odd_chunk_bytes),
        (ArtifactForm::Packed(&packed), odd_chunk_bytes),
        (ArtifactForm::Interned(&interned), odd_chunk_bytes),
        (stream(0), odd_chunk_bytes),
        (stream(1), chunk_bytes),
        (stream(2), chunk_bytes),
    ]
    .into_iter()
    .map(|(form, budget)| (form.tag(), encode_section(form, budget)))
    .collect();
    sections.sort_by(|x, y| x.0.cmp(&y.0));
    let mut expected = artifact_header(fingerprint, sections.len()).to_vec();
    sections.iter().for_each(|(_, bytes)| expected.extend_from_slice(bytes));
    assert_eq!(after_a, expected, "own sections re-encoded, or sections out of order");
    assert_ne!(
        encode_section(ArtifactForm::Trace(&trace), odd_chunk_bytes),
        encode_section(ArtifactForm::Trace(&trace), chunk_bytes),
        "the two chunk sizes must lay the trace out differently"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
