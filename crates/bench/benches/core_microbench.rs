//! Micro-benchmarks of the core library primitives: deflation-policy
//! planning, placement scoring and the processor-sharing queue. These are not
//! tied to a paper figure; they quantify the cost of the mechanisms the
//! cluster manager invokes on every admission.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deflate_appsim::queueing::PsQueue;
use deflate_core::placement::{CosineFitness, PlacementPolicy, ServerView};
use deflate_core::policy::{
    DeflationPolicy, DeterministicDeflation, PriorityDeflation, ProportionalDeflation,
    VmResourceState,
};
use deflate_core::resources::ResourceVector;
use deflate_core::vm::{ServerId, VmClass, VmId, VmSpec};
use std::hint::black_box;

fn states(n: usize) -> Vec<VmResourceState> {
    (0..n)
        .map(|i| VmResourceState {
            id: VmId(i as u64),
            max: 8_000.0,
            min: 0.0,
            current: 8_000.0,
            priority: 0.2 + 0.6 * (i as f64 / n.max(1) as f64),
        })
        .collect()
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_planning");
    for n in [8usize, 64, 512] {
        let vms = states(n);
        let demand = 0.3 * 8_000.0 * n as f64;
        group.bench_with_input(BenchmarkId::new("proportional", n), &vms, |b, vms| {
            let policy = ProportionalDeflation::default();
            b.iter(|| black_box(policy.plan(vms, demand)))
        });
        group.bench_with_input(BenchmarkId::new("priority", n), &vms, |b, vms| {
            let policy = PriorityDeflation::default();
            b.iter(|| black_box(policy.plan(vms, demand)))
        });
        group.bench_with_input(BenchmarkId::new("deterministic", n), &vms, |b, vms| {
            let policy = DeterministicDeflation::binary();
            b.iter(|| black_box(policy.plan(vms, demand)))
        });
    }
    group.finish();
}

fn bench_placement(c: &mut Criterion) {
    let servers: Vec<ServerView> = (0..128)
        .map(|i| {
            let total = ResourceVector::cpu_mem(48_000.0, 131_072.0);
            ServerView {
                id: ServerId(i),
                total,
                used: total * (0.3 + 0.5 * (i as f64 / 128.0)),
                deflatable: total * 0.2,
                overcommitment: 1.0 + (i % 4) as f64 * 0.2,
                partition: None,
            }
        })
        .collect();
    let vm = VmSpec::deflatable(
        VmId(1),
        VmClass::Interactive,
        ResourceVector::cpu_mem(8_000.0, 16_384.0),
    );
    c.bench_function("placement_cosine_fitness_128_servers", |b| {
        let policy = CosineFitness::load_balancing();
        b.iter(|| black_box(policy.place(&vm, &servers, &[])))
    });
}

fn bench_ps_queue(c: &mut Criterion) {
    c.bench_function("ps_queue_10k_requests", |b| {
        b.iter(|| {
            let mut q = PsQueue::new(8.0);
            let mut completions = 0usize;
            for i in 0..10_000u64 {
                let t = i as f64 * 0.001;
                completions += q.arrive(t, i, 0.004).len();
            }
            let (done, _) = q.drain(1e9);
            black_box(completions + done.len())
        })
    });
}

criterion_group!(benches, bench_policies, bench_placement, bench_ps_queue);
criterion_main!(benches);
