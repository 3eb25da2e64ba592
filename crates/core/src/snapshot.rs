//! Warm-state snapshots of a [`DeltaState`] (the durability layer's
//! payload format — ROADMAP item 3's warm restart applied to the
//! incremental serving path).
//!
//! A snapshot captures everything [`DeltaState`] caches — the evolved
//! pair, the raw feature stores, the propagation layers, the last
//! pipeline output, and the chained fingerprint — in the same
//! little-endian fixed-width codec the checkpoint artifacts use, so
//! every `f32`/`f64` round-trips bitwise and a decoded state is
//! *indistinguishable* from the state that was encoded. Nothing is
//! recomputed on decode: that is what makes a warm restart cheap (no
//! feature extraction, no fusion) and provable (bit-identical answers).
//!
//! Integrity discipline mirrors [`crate::checkpoint`]:
//!
//! * a magic + version header fails loudly on a foreign or future file,
//! * the configuration is pinned by its [`config_fingerprint`] — the
//!   caller rebuilds [`CeaffConfig`] from its own flags and decode
//!   *verifies* it matches the one the snapshot was taken under,
//! * every read is bounds-checked, so truncated or bit-flipped payloads
//!   fail with a typed [`CeaffError::Checkpoint`], never a panic — the
//!   outer file framing (CRC32, atomic rename) is the WAL layer's job.
//!
//! Wall-clock telemetry ([`RunTrace`]) is deliberately *not* captured:
//! it is the one non-deterministic field of a [`CeaffOutput`], and a
//! restored state reports a fresh (empty) trace instead of replaying
//! stale timings.

use ceaff_graph::{Alignment, EntityId, KgPair, KnowledgeGraph, RelationId, SeedSplit, Triple};
use ceaff_sim::{SimStore, SimilarityMatrix, SparseTopK};
use ceaff_telemetry::RunTrace;

use crate::checkpoint::{config_fingerprint, ByteReader, ByteWriter};
use crate::delta::DeltaState;
use crate::error::CeaffError;
use crate::eval::RankingMetrics;
use crate::features::{Feature, SemanticFeature, StringFeature, StructuralFeature};
use crate::fusion::FusionReport;
use crate::matching::Matching;
use crate::pipeline::{CeaffConfig, CeaffOutput, FeatureSet};

/// `b"CSNP"` — CEAFF warm-state snapshot.
const MAGIC: u32 = u32::from_le_bytes(*b"CSNP");
/// Layout version; bumped on any change so old readers fail loudly.
const VERSION: u32 = 1;

fn snap_err(reason: impl Into<String>) -> CeaffError {
    CeaffError::Checkpoint {
        file: "warm-snapshot".into(),
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

fn put_store(w: &mut ByteWriter, store: &SimStore) {
    match store {
        SimStore::Dense(m) => {
            w.u8(0);
            w.matrix(m.as_matrix());
        }
        SimStore::Sparse(sp) => {
            w.u8(1);
            w.usize(sp.targets());
            w.usize(sp.k());
            w.usize(sp.sources());
            for i in 0..sp.sources() {
                let (cols, vals) = sp.row_entries(i);
                w.u32s(cols);
                w.f32s(vals);
            }
        }
    }
}

fn put_links(w: &mut ByteWriter, links: &[(EntityId, EntityId)]) {
    w.usize(links.len());
    for &(u, v) in links {
        w.u32(u.0);
        w.u32(v.0);
    }
}

fn put_graph(w: &mut ByteWriter, g: &KnowledgeGraph) {
    w.usize(g.num_entities());
    for id in g.entity_ids() {
        w.str(g.entity_name(id).expect("dense ids"));
    }
    w.usize(g.num_relations());
    for id in g.relation_ids() {
        w.str(g.relation_name(id).expect("dense ids"));
    }
    w.usize(g.num_triples());
    for t in g.triples() {
        w.u32(t.head.0);
        w.u32(t.relation.0);
        w.u32(t.tail.0);
    }
}

/// Binary pair codec. Names in intern order plus triples in insertion
/// order are the graph's whole identity: rebuilding through
/// `add_entity`/`add_relation`/`add_triple` regenerates the per-entity
/// edge indexes exactly (they are kept in the built-from-scratch layout
/// even under deltas), so the decoded pair is `==` the encoded one
/// without shipping the derived indexes. This path used to round-trip
/// the pair through JSON, which dominated warm-restart latency at
/// scale 1 (~1.1 s of `Value`-tree allocation vs ~20 ms here).
fn put_pair(w: &mut ByteWriter, pair: &KgPair) {
    put_graph(w, &pair.source);
    put_graph(w, &pair.target);
    put_links(w, pair.alignment.pairs());
    put_links(w, pair.split.seed());
    put_links(w, pair.split.test());
}

fn put_fusion_report(w: &mut ByteWriter, report: &FusionReport) {
    w.f32s(&report.weights);
    w.usize(report.candidates_per_feature.len());
    for &c in &report.candidates_per_feature {
        w.usize(c);
    }
    w.usize(report.retained_per_feature.len());
    for &r in &report.retained_per_feature {
        w.usize(r);
    }
    w.u8(report.fallback_equal as u8);
}

/// Serialize a [`DeltaState`] into a self-describing snapshot payload.
///
/// Fails (typed) if the state carries `extra` features: those are
/// arbitrary trait objects the codec cannot round-trip, and the serving
/// path — the only producer of snapshots — never sets them.
pub fn encode_delta_state(state: &DeltaState) -> Result<Vec<u8>, CeaffError> {
    let features = state.features();
    if !features.extra.is_empty() {
        return Err(snap_err(
            "states with extra (plugin) features cannot be snapshotted",
        ));
    }
    let mut w = ByteWriter::new();
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u32(config_fingerprint(state.config())?);
    w.u32(state.fingerprint());
    w.u64(state.step() as u64);

    put_pair(&mut w, state.pair());

    let (prop_source, prop_target) = state.prop_layers();
    for layers in [prop_source, prop_target] {
        w.usize(layers.len());
        for m in layers {
            w.matrix(m);
        }
    }

    match &features.structural {
        None => w.u8(0),
        Some(f) => {
            w.u8(1);
            w.matrix(f.source_embeddings());
            w.matrix(f.target_embeddings());
            w.f32s(&f.loss_curve);
            put_store(&mut w, f.test_store());
        }
    }
    match &features.semantic {
        None => w.u8(0),
        Some(f) => {
            w.u8(1);
            w.matrix(f.source_embeddings());
            w.matrix(f.target_embeddings());
            put_store(&mut w, f.test_store());
        }
    }
    match &features.string {
        None => w.u8(0),
        Some(f) => {
            w.u8(1);
            put_store(&mut w, f.test_store());
        }
    }

    let output = state.output();
    put_store(&mut w, &output.fused);
    w.usize(output.matching.pairs().len());
    for &(i, j) in output.matching.pairs() {
        w.usize(i);
        w.usize(j);
    }
    w.f64(output.accuracy);
    w.f64(output.ranking.hits1);
    w.f64(output.ranking.hits10);
    w.f64(output.ranking.mrr);
    for report in [&output.textual_fusion, &output.final_fusion] {
        match report {
            None => w.u8(0),
            Some(r) => {
                w.u8(1);
                put_fusion_report(&mut w, r);
            }
        }
    }
    match &output.flat_weights {
        None => w.u8(0),
        Some(ws) => {
            w.u8(1);
            w.f32s(ws);
        }
    }
    Ok(w.into_bytes())
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

fn get_links(r: &mut ByteReader<'_>) -> Result<Vec<(EntityId, EntityId)>, String> {
    // Each link is two u32 ids.
    let n = r.checked_len(8)?;
    let mut links = Vec::with_capacity(n);
    for _ in 0..n {
        let u = EntityId::new(r.u32()?);
        let v = EntityId::new(r.u32()?);
        links.push((u, v));
    }
    Ok(links)
}

fn get_graph(r: &mut ByteReader<'_>) -> Result<KnowledgeGraph, String> {
    let mut g = KnowledgeGraph::new();
    // Every name is at least its u64 length prefix.
    let n_entities = r.checked_len(8)?;
    for i in 0..n_entities {
        let id = g.add_entity(&r.str()?);
        if id.index() != i {
            return Err(format!("duplicate entity name at interned id {i}"));
        }
    }
    let n_relations = r.checked_len(8)?;
    for i in 0..n_relations {
        let id = g.add_relation(&r.str()?);
        if id.index() != i {
            return Err(format!("duplicate relation name at interned id {i}"));
        }
    }
    // Each triple is three u32 ids.
    let n_triples = r.checked_len(12)?;
    for _ in 0..n_triples {
        let head = EntityId::new(r.u32()?);
        let relation = RelationId::new(r.u32()?);
        let tail = EntityId::new(r.u32()?);
        g.add_triple(Triple::new(head, relation, tail))
            .map_err(|e| format!("cannot rebuild triple: {e}"))?;
    }
    Ok(g)
}

fn get_pair(r: &mut ByteReader<'_>) -> Result<KgPair, String> {
    let source = get_graph(r)?;
    let target = get_graph(r)?;
    let alignment =
        Alignment::new(get_links(r)?).map_err(|e| format!("cannot rebuild alignment: {e}"))?;
    let seed = get_links(r)?;
    let test = get_links(r)?;
    Ok(KgPair {
        source,
        target,
        alignment,
        split: SeedSplit::from_parts(seed, test),
    })
}

fn get_store(r: &mut ByteReader<'_>) -> Result<SimStore, String> {
    match r.u8()? {
        0 => Ok(SimStore::Dense(SimilarityMatrix::new(r.matrix()?))),
        1 => {
            let targets = r.usize()?;
            let k = r.usize()?;
            // Each row is at least its two u64 length prefixes.
            let sources = r.checked_len(16)?;
            let mut rows = Vec::with_capacity(sources);
            for _ in 0..sources {
                let cols = r.u32s()?;
                let vals = r.f32s()?;
                if cols.len() != vals.len() {
                    return Err("sparse row column/value length mismatch".into());
                }
                rows.push(cols.into_iter().zip(vals).collect());
            }
            // `from_rows` keeps already-canonical rows (score-desc,
            // col-asc ties) untouched, so the rebuilt store is bitwise
            // the encoded one — and it re-registers the tensor-ledger
            // bytes the serde skip dropped.
            Ok(SimStore::Sparse(SparseTopK::from_rows(targets, k, rows)))
        }
        tag => Err(format!("unknown store tag {tag}")),
    }
}

fn get_fusion_report(r: &mut ByteReader<'_>) -> Result<FusionReport, String> {
    let weights = r.f32s()?;
    let n = r.checked_len(8)?;
    let candidates_per_feature = (0..n).map(|_| r.usize()).collect::<Result<_, _>>()?;
    let n = r.checked_len(8)?;
    let retained_per_feature = (0..n).map(|_| r.usize()).collect::<Result<_, _>>()?;
    let fallback_equal = r.u8()? != 0;
    Ok(FusionReport {
        weights,
        candidates_per_feature,
        retained_per_feature,
        fallback_equal,
    })
}

/// Reassemble a [`DeltaState`] from a snapshot payload.
///
/// `cfg` is the configuration the caller is serving under (rebuilt from
/// its own flags); decode verifies it fingerprints to the configuration
/// the snapshot was taken with and fails typed otherwise — restoring
/// warm state under a different configuration would silently change
/// every answer.
pub fn decode_delta_state(bytes: &[u8], cfg: &CeaffConfig) -> Result<DeltaState, CeaffError> {
    decode_inner(bytes, cfg).map_err(snap_err)
}

fn decode_inner(bytes: &[u8], cfg: &CeaffConfig) -> Result<DeltaState, String> {
    let mut r = ByteReader::new(bytes);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(format!("bad magic {magic:#010x} (not a snapshot)"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(format!(
            "snapshot layout version {version} (this build reads {VERSION})"
        ));
    }
    let saved_cfg_crc = r.u32()?;
    let live_cfg_crc = config_fingerprint(cfg).map_err(|e| e.to_string())?;
    if saved_cfg_crc != live_cfg_crc {
        return Err(format!(
            "snapshot was taken under a different configuration \
             (saved crc {saved_cfg_crc:#010x}, serving under {live_cfg_crc:#010x})"
        ));
    }
    let fingerprint = r.u32()?;
    let step = usize::try_from(r.u64()?).map_err(|_| "step exceeds address space".to_owned())?;

    let pair = get_pair(&mut r)?;

    let mut prop = [Vec::new(), Vec::new()];
    for layers in &mut prop {
        // Each matrix is at least its two u64 shape prefixes.
        let n = r.checked_len(16)?;
        for _ in 0..n {
            layers.push(r.matrix()?);
        }
    }
    let [prop_source, prop_target] = prop;

    let structural = match r.u8()? {
        0 => None,
        _ => {
            let z_source = r.matrix()?;
            let z_target = r.matrix()?;
            let loss_curve = r.f32s()?;
            let test = get_store(&mut r)?;
            Some(StructuralFeature::from_store_parts(
                z_source, z_target, test, loss_curve,
            ))
        }
    };
    let semantic = match r.u8()? {
        0 => None,
        _ => {
            let n_source = r.matrix()?;
            let n_target = r.matrix()?;
            let test = get_store(&mut r)?;
            Some(SemanticFeature::from_store_parts(n_source, n_target, test))
        }
    };
    let string = match r.u8()? {
        0 => None,
        _ => {
            let test = get_store(&mut r)?;
            Some(StringFeature::from_store(&pair, test))
        }
    };
    let features = FeatureSet {
        structural,
        semantic,
        string,
        extra: Vec::new(),
    };

    let fused = get_store(&mut r)?;
    // Each matched pair is two u64 indices.
    let n = r.checked_len(16)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((r.usize()?, r.usize()?));
    }
    let matching = Matching::from_pairs(pairs);
    let accuracy = r.f64()?;
    let ranking = RankingMetrics {
        hits1: r.f64()?,
        hits10: r.f64()?,
        mrr: r.f64()?,
    };
    let mut reports = [None, None];
    for slot in &mut reports {
        if r.u8()? != 0 {
            *slot = Some(get_fusion_report(&mut r)?);
        }
    }
    let [textual_fusion, final_fusion] = reports;
    let flat_weights = match r.u8()? {
        0 => None,
        _ => Some(r.f32s()?),
    };
    let output = CeaffOutput {
        fused,
        matching,
        accuracy,
        ranking,
        textual_fusion,
        final_fusion,
        flat_weights,
        trace: RunTrace::default(),
    };

    Ok(DeltaState::from_parts(
        cfg.clone(),
        pair,
        features,
        prop_source,
        prop_target,
        output,
        fingerprint,
        step,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::GcnConfig;
    use crate::pipeline::EaInput;
    use ceaff_graph::{DeltaOp, KgDelta, Side};

    fn dataset() -> ceaff_datagen::GeneratedDataset {
        ceaff_datagen::generate(&ceaff_datagen::GenConfig {
            aligned_entities: 60,
            channel: ceaff_datagen::NameChannel::Identical { typo_rate: 0.05 },
            ..ceaff_datagen::GenConfig::default()
        })
    }

    fn cfg(blocked: bool) -> CeaffConfig {
        let mut c = CeaffConfig::builder()
            .gcn(GcnConfig {
                dim: 16,
                ..GcnConfig::default()
            })
            .embed_dim(32)
            .build()
            .expect("valid config")
            .with_propagation(2);
        if blocked {
            c = c.with_blocking(8);
        }
        c
    }

    fn assert_states_bitwise_equal(a: &DeltaState, b: &DeltaState) {
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.step(), b.step());
        assert_eq!(a.pair(), b.pair());
        assert_eq!(a.output().matching.pairs(), b.output().matching.pairs());
        assert_eq!(a.output().accuracy.to_bits(), b.output().accuracy.to_bits());
        match (&a.output().fused, &b.output().fused) {
            (SimStore::Dense(x), SimStore::Dense(y)) => {
                let (xs, ys) = (x.as_matrix().as_slice(), y.as_matrix().as_slice());
                assert_eq!(xs.len(), ys.len());
                for (p, q) in xs.iter().zip(ys) {
                    assert_eq!(p.to_bits(), q.to_bits(), "fused store diverged");
                }
            }
            (SimStore::Sparse(x), SimStore::Sparse(y)) => assert_eq!(x, y),
            _ => panic!("store kinds diverged"),
        }
        // The strongest check: re-encoding the decoded state reproduces
        // the exact byte stream, so *every* captured field round-tripped.
        assert_eq!(
            encode_delta_state(a).unwrap(),
            encode_delta_state(b).unwrap(),
            "re-encoded snapshots must be byte-identical"
        );
    }

    fn roundtrip(blocked: bool) {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = cfg(blocked);
        let mut state =
            DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm state");
        // Advance one step so fingerprint/step are non-trivial.
        let (u, _) = ds.pair.test_pairs()[0];
        let anchor = ds.pair.source.entity_name(u).expect("interned").to_owned();
        let rel = ds.pair.source.triples()[0].relation;
        let rel = ds
            .pair
            .source
            .relation_name(rel)
            .expect("interned")
            .to_owned();
        let delta = KgDelta::new(vec![
            DeltaOp::AddEntity {
                side: Side::Source,
                name: "snap_fresh".into(),
                at: None,
            },
            DeltaOp::AddTriple {
                side: Side::Source,
                head: "snap_fresh".into(),
                relation: rel,
                tail: anchor,
                at: None,
            },
        ]);
        state.apply(&delta, &src, &tgt).expect("delta applies");

        let bytes = encode_delta_state(&state).expect("encode");
        let restored = decode_delta_state(&bytes, &cfg).expect("decode");
        assert_states_bitwise_equal(&state, &restored);

        // A restored state must keep evolving exactly like the original.
        let delta2 = KgDelta::new(vec![DeltaOp::AddEntity {
            side: Side::Target,
            name: "snap_fresh_2".into(),
            at: None,
        }]);
        let mut live = state;
        let mut warm = restored;
        live.apply(&delta2, &src, &tgt).expect("live applies");
        warm.apply(&delta2, &src, &tgt).expect("warm applies");
        assert_states_bitwise_equal(&live, &warm);
    }

    #[test]
    fn snapshot_roundtrip_is_bitwise_dense() {
        roundtrip(false);
    }

    #[test]
    fn snapshot_roundtrip_is_bitwise_blocked() {
        roundtrip(true);
    }

    #[test]
    fn decode_rejects_a_different_configuration() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let state = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg(false)).unwrap();
        let bytes = encode_delta_state(&state).unwrap();
        let err = decode_delta_state(&bytes, &cfg(true))
            .map(|_| ())
            .expect_err("config mismatch must be rejected");
        match err {
            CeaffError::Checkpoint { reason, .. } => {
                assert!(reason.contains("different configuration"), "{reason}")
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn huge_counts_fail_typed_never_abort() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = cfg(true);
        let state = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).unwrap();
        let bytes = encode_delta_state(&state).unwrap();
        // Every u64 count the decoder reads on a valid encoding.
        crate::checkpoint::COUNT_READS.with(|r| r.take());
        decode_delta_state(&bytes, &cfg).expect("valid encoding decodes");
        let reads = crate::checkpoint::COUNT_READS.with(|r| r.take());
        assert!(!reads.prefixes.is_empty());
        assert!(reads.prefixes.iter().all(|at| reads.all.contains(at)));
        // Splice 2^40 into each. A length prefix of 2^40 elements fits in
        // no remaining payload and must fail typed; a scalar may decode.
        // Neither may panic, nor reach the allocator with the count (an
        // attempt to reserve terabytes aborts the process, failing this
        // test).
        let huge = (1u64 << 40).to_le_bytes();
        for &at in &reads.all {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&huge);
            let decoded = std::panic::catch_unwind(|| decode_delta_state(&bad, &cfg).map(|_| ()));
            match decoded {
                Err(_) => panic!("offset {at}: the decoder panicked"),
                Ok(Err(CeaffError::Checkpoint { .. })) => {}
                Ok(Err(other)) => panic!("offset {at}: untyped error {other:?}"),
                Ok(Ok(())) => assert!(
                    !reads.prefixes.contains(&at),
                    "offset {at}: a 2^40 length prefix decoded"
                ),
            }
        }
    }

    #[test]
    fn every_corrupt_byte_fails_typed_never_panics() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = cfg(true);
        let state = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).unwrap();
        let bytes = encode_delta_state(&state).unwrap();
        // Truncations at a spread of prefixes: typed error or — never — a
        // panic. (Bit flips may legitimately decode if they land in f32
        // payload bytes; the outer file CRC catches those. Truncation
        // must always be caught structurally.)
        for cut in [0, 3, 7, 11, bytes.len() / 2, bytes.len() - 1] {
            let res = decode_delta_state(&bytes[..cut], &cfg);
            assert!(res.is_err(), "truncation at {cut} must fail");
        }
        // A flipped header/magic byte is always structural.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_delta_state(&bad, &cfg).is_err());
    }
}
