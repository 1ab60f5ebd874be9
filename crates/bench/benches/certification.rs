//! Micro-benchmark: certifier throughput — the paper's claim that
//! certification is an order of magnitude cheaper than executing the
//! transaction, and that the certifier log batches writesets efficiently.
//! Runs the paper's configuration: one certifier shard.

use criterion::{criterion_group, criterion_main, Criterion};
use tashkent_certifier::{CertificationRequest, ShardedCertifier, ShardedCertifierConfig};
use tashkent_common::{ReplicaId, TableId, Value, Version, WriteItem, WriteSet};

fn request(key: i64, start: Version, replica_version: Version) -> CertificationRequest {
    CertificationRequest {
        replica: ReplicaId(0),
        start_version: start,
        writeset: WriteSet::from_items(vec![WriteItem::update(
            TableId(0),
            key,
            vec![("x".into(), Value::Int(key))],
        )]),
        replica_version,
    }
}

fn bench_certify(c: &mut Criterion) {
    let mut group = c.benchmark_group("certification");
    group.bench_function("certify_non_conflicting", |b| {
        let certifier = ShardedCertifier::new(ShardedCertifierConfig::with_shards(1));
        let mut key = 0i64;
        b.iter(|| {
            key += 1;
            let version = certifier.system_version();
            certifier.certify(&request(key, version, version)).unwrap()
        });
    });
    group.bench_function("certify_against_deep_log", |b| {
        let certifier = ShardedCertifier::new(ShardedCertifierConfig::with_shards(1));
        for key in 0..2_000 {
            let version = certifier.system_version();
            certifier.certify(&request(key, version, version)).unwrap();
        }
        let mut key = 10_000i64;
        b.iter(|| {
            key += 1;
            let version = certifier.system_version();
            certifier.certify(&request(key, version, version)).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_certify);
criterion_main!(benches);
