//! Criterion benchmark of the PHY primitives: time-on-air arithmetic
//! (per-call vs the [`ToaLut`] full-grid cache) and the link-budget chain,
//! plus the model's capacity Poisson–binomial DP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use lora_model::capacity::{poisson_at_most, poisson_binomial_at_most};
use lora_phy::link::{min_feasible_sf, noise_floor_dbm, received_power_dbm};
use lora_phy::toa::{CodingRate, ToaLut, ToaParams, MAX_PHY_PAYLOAD};
use lora_phy::{Bandwidth, SpreadingFactor};

fn bench_toa(c: &mut Criterion) {
    let params = ToaParams::new(SpreadingFactor::Sf12, Bandwidth::Bw125, CodingRate::Cr4_7);
    c.bench_function("phy/time_on_air_21B_sf12", |b| {
        b.iter(|| params.time_on_air_s(std::hint::black_box(21)).unwrap())
    });
}

fn bench_toa_grid(c: &mut Criterion) {
    // The full SF × payload grid, exactly the work `Simulation::new` and
    // the model evaluators repeat per device: recomputing Eq. 4 every
    // call vs one `ToaLut` lookup.
    let grid = SpreadingFactor::ALL.len() * (MAX_PHY_PAYLOAD + 1);
    let mut group = c.benchmark_group("phy/toa_grid");
    group.throughput(Throughput::Elements(grid as u64));
    group.bench_function("uncached", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for sf in SpreadingFactor::ALL {
                let params = ToaParams::new(sf, Bandwidth::Bw125, CodingRate::Cr4_7);
                for len in 0..=MAX_PHY_PAYLOAD {
                    acc += params.time_on_air_s(len).unwrap();
                }
            }
            acc
        })
    });
    let lut = ToaLut::new(Bandwidth::Bw125, CodingRate::Cr4_7);
    group.bench_function("lut", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for sf in SpreadingFactor::ALL {
                for len in 0..=MAX_PHY_PAYLOAD {
                    acc += lut.time_on_air_s(sf, len).unwrap();
                }
            }
            acc
        })
    });
    group.bench_function("lut_build", |b| {
        b.iter(|| ToaLut::new(Bandwidth::Bw125, CodingRate::Cr4_7))
    });
    group.finish();
}

fn bench_link_budget(c: &mut Criterion) {
    // The per-(device, gateway) reception chain the simulator evaluates
    // on every transmission: RX power, noise floor, feasible SF.
    c.bench_function("phy/link_budget", |b| {
        b.iter(|| {
            let rx = received_power_dbm(std::hint::black_box(14.0), 128.0, 1.0);
            let noise = noise_floor_dbm(Bandwidth::Bw125, 6.0);
            min_feasible_sf(rx, Bandwidth::Bw125, 6.0, 0.0).map(|sf| (sf, noise))
        })
    });
}

fn bench_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("model/capacity_theta");
    for &n in &[100usize, 1000, 5000] {
        let probs = vec![0.003f64; n];
        group.bench_with_input(BenchmarkId::new("poisson_binomial", n), &n, |b, _| {
            b.iter(|| poisson_binomial_at_most(&probs, 7))
        });
    }
    group.bench_function("poisson_tail", |b| b.iter(|| poisson_at_most(3.0, 7)));
    group.finish();
}

criterion_group!(
    benches,
    bench_toa,
    bench_toa_grid,
    bench_link_budget,
    bench_capacity
);
criterion_main!(benches);
