//! **Table III** — overhead as the number of SACK rules grows
//! (0 / 10 / 100 / 500 / 1000), SACK-enhanced-AppArmor configuration.
//!
//! The paper finds the rule count has negligible effect; here SACK's
//! per-access check returns before any matcher (enhanced mode leaves it to
//! AppArmor), and AppArmor's is one walk of the profile's DFA, O(|path|)
//! whatever the rule count, so the lines should stay flat.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sack_bench::boot_rule_count;
use sack_kernel::file::OpenFlags;
use sack_lmbench::workload::REREAD_FILE;

const RULE_COUNTS: [usize; 5] = [0, 10, 100, 500, 1000];

fn bench_open_close(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3/open_close");
    for rules in RULE_COUNTS {
        let bed = boot_rule_count(rules);
        group.bench_with_input(BenchmarkId::from_parameter(rules), &bed, |b, bed| {
            b.iter(|| {
                let fd = bed
                    .proc()
                    .open(REREAD_FILE, OpenFlags::read_only())
                    .expect("open");
                bed.proc().close(fd).expect("close");
            });
        });
    }
    group.finish();
}

fn bench_io(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3/io_1b");
    for rules in RULE_COUNTS {
        let bed = boot_rule_count(rules);
        let fd = bed
            .proc()
            .open(REREAD_FILE, OpenFlags::read_only())
            .expect("open");
        group.bench_with_input(BenchmarkId::from_parameter(rules), &bed, |b, bed| {
            let mut buf = [0u8; 1];
            b.iter(|| {
                bed.proc().seek(fd, 0).expect("seek");
                bed.proc().read(fd, &mut buf).expect("read");
            });
        });
    }
    group.finish();
}

fn bench_file_create_delete(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3/file_create_delete_0k");
    group.sample_size(10);
    for rules in RULE_COUNTS {
        let bed = boot_rule_count(rules);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(rules), &bed, |b, bed| {
            b.iter(|| {
                let path = format!("/tmp/bench/t3_{i}");
                i += 1;
                let fd = bed
                    .proc()
                    .open(&path, OpenFlags::create_new())
                    .expect("create");
                bed.proc().close(fd).expect("close");
                bed.proc().unlink(&path).expect("unlink");
            });
        });
    }
    group.finish();
}

fn bench_stat(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3/stat");
    for rules in RULE_COUNTS {
        let bed = boot_rule_count(rules);
        group.bench_with_input(BenchmarkId::from_parameter(rules), &bed, |b, bed| {
            b.iter(|| bed.proc().stat("/usr/bin/true").expect("stat"));
        });
    }
    group.finish();
}

fn config_criterion() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
        .sample_size(10)
}

criterion_group! {
    name = table3;
    config = config_criterion();
    targets = bench_open_close, bench_io, bench_file_create_delete, bench_stat
}
criterion_main!(table3);
