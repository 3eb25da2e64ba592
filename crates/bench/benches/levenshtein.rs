//! String-feature kernels: single-pair Levenshtein ratio and the full
//! pairwise name-similarity matrix `Ml`.

use ceaff::datagen::Preset;
use ceaff::sim::{levenshtein_ratio, string_similarity_matrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_levenshtein(c: &mut Criterion) {
    let mut group = c.benchmark_group("levenshtein");

    group.bench_function("ratio/short-pair", |b| {
        b.iter(|| {
            levenshtein_ratio(
                std::hint::black_box("Barack Obama"),
                std::hint::black_box("Barack Hussein Obama"),
            )
        })
    });
    group.bench_function("ratio/long-pair", |b| {
        b.iter(|| {
            levenshtein_ratio(
                std::hint::black_box("University of California, Berkeley (public research)"),
                std::hint::black_box("Universitat de Californien Berkeley (offentliche)"),
            )
        })
    });

    // Full Ml matrices from a real preset's names.
    let ds = Preset::SrprsDbpWd.generate(0.2);
    let src: Vec<String> = ds
        .test_source_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let tgt: Vec<String> = ds
        .test_target_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    for n in [50usize, 140] {
        let s = &src[..n.min(src.len())];
        let t = &tgt[..n.min(tgt.len())];
        group.bench_with_input(BenchmarkId::new("matrix", n), &n, |b, _| {
            b.iter(|| string_similarity_matrix(std::hint::black_box(s), std::hint::black_box(t)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_levenshtein);
criterion_main!(benches);
