//! The filesystem workloads — `tree-walk`, `fd-hot` and `file-churn` — and
//! the 10k-rule policy they share.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sack_kernel::error::KernelResult;
use sack_kernel::file::OpenFlags;
use sack_kernel::lsm::AccessMask;
use sack_kernel::path::KPath;
use sack_kernel::types::{Fd, Mode};
use sack_kernel::uctx::UserContext;
use sack_kernel::{Gid, Uid};

use crate::env::{Config, Env, HookCall, Object, Policies};
use crate::rng::{Digest, Rng};
use crate::run::{closed_loop, LayerInputs, OpResult, Round, Workload};

/// Files in the walked tree: more than the 512-slot decision cache holds.
const TREE_FILES: usize = 4096;
/// Bytes each tree-walk op reads.
const READ_BYTES: usize = 64;
const FD_READERS: usize = 6;
const FD_WRITERS: usize = 2;
const FD_FILE_BYTES: usize = 4096;
const FD_WRITE_BYTES: usize = 64;
const CHURN_DIRS: usize = 64;
const CHURN_BYTES: usize = 4096;
/// Length of a generated op stream; rounds cycle through it.
const STREAM_LEN: usize = 1 << 16;
/// Rules in the shared SACK policy, over `STATES` situation states. The
/// unoptimised test build compiles a tenth of them, to finish in seconds.
const POLICY_RULES: usize = if cfg!(test) { 1_000 } else { 10_000 };
const STATES: usize = 4;
/// Other applications named by the subject-scoped quarter of the rules.
const APPS: usize = 8;

const BENCH_EXE: &str = "/usr/bin/sackbench";
const BENCH_UID: u32 = 1000;

/// Which filesystem workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    TreeWalk,
    FdHot,
    Churn,
}

#[derive(Debug, Clone, Copy)]
enum FdOp {
    Read { file: u8, pos: u16 },
    Write { file: u8, pos: u16 },
}

/// The generated inputs, identical for every configuration.
struct Inputs {
    tree: Vec<KPath>,
    tree_data: Vec<[u8; READ_BYTES]>,
    walk: Vec<u16>,
    fd_data: Vec<Vec<u8>>,
    fd_ops: Vec<FdOp>,
    /// (create directory, rename directory) of churn op `seq % len`.
    churn: Vec<(u8, u8)>,
    /// Payload template of churn writes; bytes 0..8 carry the op number.
    block: Vec<u8>,
    independent: String,
    enhanced: String,
    profiles: String,
}

fn tree_paths(rng: &mut Rng) -> Vec<KPath> {
    // 8 to 10 components: /bench/t/<5..7 directories>/n<index>.
    (0..TREE_FILES)
        .map(|i| {
            let mut p = String::from("/bench/t");
            for level in 0..rng.between(5, 7) {
                let _ = write!(p, "/{}{}", (b'a' + level as u8) as char, rng.below(4));
            }
            let _ = write!(p, "/n{i:04}");
            KPath::new(&p).expect("generated path is valid")
        })
        .collect()
}

/// `/bench/t/<first 1..=4 directories of a tree file>/**`.
fn subtree(rng: &mut Rng, tree: &[KPath]) -> String {
    let file = &tree[rng.below(tree.len())];
    let dirs: Vec<&str> = file.components().skip(2).collect();
    let depth = rng.between(1, 4).min(dirs.len() - 1);
    format!("/bench/t/{}/**", dirs[..depth].join("/"))
}

/// The SACK policy (independent and enhanced forms) and AppArmor profiles
/// of the filesystem workloads: `POLICY_RULES` rules over `STATES` states,
/// a quarter of them scoped to other applications' executables. A
/// permission granted in every state covers everything the bench process
/// touches, so no op is ever denied. About one rule in nine names a tree file
/// or subtree; the rest name other services' data, as in a system image,
/// which keeps compiling ten thousand rules to seconds.
fn policies(rng: &mut Rng, tree: &[KPath]) -> (String, String, String) {
    let mut p = String::from("states {\n");
    for s in 0..STATES {
        let _ = writeln!(p, "    s{s} = {s};");
    }
    p.push_str("}\nevents {\n");
    for s in 0..STATES {
        let _ = writeln!(p, "    e{s};");
    }
    p.push_str("}\ntransitions {\n");
    for s in 0..STATES {
        let _ = writeln!(
            p,
            "    s{s} -e{}-> s{};",
            (s + 1) % STATES,
            (s + 1) % STATES
        );
    }
    p.push_str("}\ninitial s0;\npermissions {\n    BASE;\n");
    for s in 0..STATES {
        let _ = writeln!(p, "    P{s};");
    }
    p.push_str("}\nstate_per {\n    *: BASE;\n");
    for s in 0..STATES {
        let _ = writeln!(p, "    s{s}: P{s};");
    }
    p.push_str("}\nper_rules {\n    BASE:\n");
    let base = ["/bench/t/** r", "/bench/fd/** rw", "/bench/w/** rw"];
    for rule in base {
        let _ = writeln!(p, "        allow subject=* {rule};");
    }
    let per_state = (POLICY_RULES - base.len()).div_ceil(STATES);
    let mut left = POLICY_RULES - base.len();
    for s in 0..STATES {
        let _ = writeln!(p, "    P{s}:");
        for _ in 0..per_state.min(left) {
            left -= 1;
            if rng.chance(1, 4) {
                let app = rng.below(APPS);
                let object = format!("/srv/app{app}/x{}/**", rng.below(100_000));
                let _ = writeln!(p, "        allow subject=/usr/bin/app{app} {object} rw;");
            } else {
                let (object, perms) = match rng.below(20) {
                    0 => (subtree(rng, tree), "r"),
                    1 | 2 => (tree[rng.below(tree.len())].as_str().to_string(), "r"),
                    _ => (format!("/srv/data/y{}/**", rng.below(100_000)), "rw"),
                };
                let _ = writeln!(p, "        allow subject=* {object} {perms};");
            }
        }
    }
    p.push_str("}\n");
    // Enhanced mode attaches every rule to an AppArmor profile.
    let mut enhanced = p.replace("subject=*", "subject=profile:sackbench");
    for app in 0..APPS {
        enhanced = enhanced.replace(
            &format!("subject=/usr/bin/app{app} "),
            &format!("subject=profile:app{app} "),
        );
    }
    let mut profiles =
        format!("profile sackbench {BENCH_EXE} {{\n    {BENCH_EXE} rx,\n    /bench/** rw,\n}}\n");
    for app in 0..APPS {
        let _ = writeln!(
            profiles,
            "profile app{app} /usr/bin/app{app} {{\n    /srv/app{app}/** r,\n}}"
        );
    }
    (p, enhanced, profiles)
}

fn bytes(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

impl Inputs {
    fn generate(kind: FileKind, seed: u64) -> Inputs {
        let mut rng = Rng::stream(seed, 1);
        let tree = tree_paths(&mut rng);
        let (independent, enhanced, profiles) = policies(&mut rng, &tree);
        let mut data = Rng::stream(seed, 2);
        let walked = kind == FileKind::TreeWalk;
        let tree_data = if walked {
            (0..TREE_FILES)
                .map(|_| {
                    let mut b = [0u8; READ_BYTES];
                    b.iter_mut().for_each(|x| *x = data.next_u64() as u8);
                    b
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut ops = Rng::stream(seed, 3);
        let walk = if walked {
            (0..STREAM_LEN)
                .map(|_| ops.below(TREE_FILES) as u16)
                .collect()
        } else {
            Vec::new()
        };
        let fd_data = (0..FD_READERS)
            .map(|_| bytes(&mut data, FD_FILE_BYTES))
            .collect();
        let fd_ops = (0..STREAM_LEN)
            .map(|_| {
                if ops.chance(3, 4) {
                    FdOp::Read {
                        file: ops.below(FD_READERS) as u8,
                        pos: ops.below(FD_FILE_BYTES) as u16,
                    }
                } else {
                    FdOp::Write {
                        file: ops.below(FD_WRITERS) as u8,
                        pos: (ops.below(FD_FILE_BYTES / FD_WRITE_BYTES) * FD_WRITE_BYTES) as u16,
                    }
                }
            })
            .collect();
        let churn = (0..STREAM_LEN)
            .map(|_| (ops.below(CHURN_DIRS) as u8, ops.below(CHURN_DIRS) as u8))
            .collect();
        Inputs {
            tree: if walked { tree } else { Vec::new() },
            tree_data,
            walk,
            fd_data,
            fd_ops,
            churn,
            block: bytes(&mut data, CHURN_BYTES),
            independent,
            enhanced,
            profiles,
        }
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for p in &self.tree {
            d.bytes(p.as_str().as_bytes());
        }
        for b in &self.tree_data {
            d.bytes(b);
        }
        for i in &self.walk {
            d.u64(u64::from(*i));
        }
        for b in &self.fd_data {
            d.bytes(b);
        }
        for op in &self.fd_ops {
            let (tag, file, pos) = match op {
                FdOp::Read { file, pos } => (0, file, pos),
                FdOp::Write { file, pos } => (1, file, pos),
            };
            d.u64(tag << 32 | u64::from(*file) << 16 | u64::from(*pos));
        }
        for (a, b) in &self.churn {
            d.u64(u64::from(*a) << 8 | u64::from(*b));
        }
        d.bytes(&self.block);
        d.bytes(self.independent.as_bytes());
        d.bytes(self.enhanced.as_bytes());
        d.bytes(self.profiles.as_bytes());
        d.finish()
    }

    fn churn_paths(&self, seq: u64) -> (String, String) {
        let (a, b) = self.churn[seq as usize % self.churn.len()];
        (
            format!("/bench/w/d{a:02}/c{seq}"),
            format!("/bench/w/d{b:02}/r{seq}"),
        )
    }
}

/// One configuration's kernel with the bench process and its descriptors.
struct Slot {
    env: Env,
    proc: UserContext,
    readers: Vec<Fd>,
    writers: Vec<Fd>,
    cursor: u64,
    buf: Vec<u8>,
    payload: Vec<u8>,
}

fn prepare(env: &Env, kind: FileKind, inputs: &Inputs) -> KernelResult<()> {
    let vfs = env.kernel.vfs();
    env.install_exe(BENCH_EXE)?;
    vfs.mkdir_all(&KPath::new("/bench")?)?;
    match kind {
        FileKind::TreeWalk => {
            for (path, data) in inputs.tree.iter().zip(&inputs.tree_data) {
                vfs.mkdir_all(&path.parent().expect("tree files have parents"))?;
                let node = vfs.create_file(path, Mode::REGULAR, Uid::ROOT, Gid(0))?;
                vfs.write_at(&node, data, 0)?;
            }
        }
        FileKind::FdHot => {
            vfs.mkdir_all(&KPath::new("/bench/fd")?)?;
            for (i, data) in inputs.fd_data.iter().enumerate() {
                let node = vfs.create_file(
                    &KPath::new(&format!("/bench/fd/r{i}"))?,
                    Mode::REGULAR,
                    Uid::ROOT,
                    Gid(0),
                )?;
                vfs.write_at(&node, data, 0)?;
            }
            for i in 0..FD_WRITERS {
                vfs.create_file(
                    &KPath::new(&format!("/bench/fd/w{i}"))?,
                    Mode(0o666),
                    Uid::ROOT,
                    Gid(0),
                )?;
            }
        }
        FileKind::Churn => {
            vfs.mkdir_all(&KPath::new("/bench/w")?)?;
            for d in 0..CHURN_DIRS {
                vfs.mkdir(
                    &KPath::new(&format!("/bench/w/d{d:02}"))?,
                    Mode(0o777),
                    Uid::ROOT,
                    Gid(0),
                )?;
            }
        }
    }
    Ok(())
}

/// `open` + `read` + `close`, closing even when the read fails.
fn read_file(proc: &UserContext, path: &str, buf: &mut [u8]) -> KernelResult<usize> {
    let fd = proc.open(path, OpenFlags::read_only())?;
    let n = proc.read(fd, buf);
    proc.close(fd)?;
    n
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A filesystem workload over all four configurations.
pub struct FileBench {
    kind: FileKind,
    configs: Vec<Config>,
    inputs: Inputs,
    slots: Vec<Slot>,
}

impl FileBench {
    /// Generates the inputs for `seed` and boots every configuration with
    /// them.
    pub fn setup(kind: FileKind, seed: u64) -> FileBench {
        let inputs = Inputs::generate(kind, seed);
        let policies = Policies {
            independent: &inputs.independent,
            enhanced: &inputs.enhanced,
            profiles: &inputs.profiles,
        };
        let slots = Config::ALL
            .iter()
            .map(|&config| {
                let env = Env::boot(config, &policies);
                prepare(&env, kind, &inputs).expect("fixture builds on a fresh kernel");
                let proc = env
                    .spawn_exec(BENCH_UID, BENCH_EXE)
                    .expect("bench process starts");
                let open = |name: String, flags| {
                    proc.open(&name, flags)
                        .expect("bench descriptors open under every configuration")
                };
                let (readers, writers) = if kind == FileKind::FdHot {
                    (
                        (0..FD_READERS)
                            .map(|i| open(format!("/bench/fd/r{i}"), OpenFlags::read_only()))
                            .collect(),
                        (0..FD_WRITERS)
                            .map(|i| open(format!("/bench/fd/w{i}"), OpenFlags::write_only()))
                            .collect(),
                    )
                } else {
                    (Vec::new(), Vec::new())
                };
                Slot {
                    env,
                    proc,
                    readers,
                    writers,
                    cursor: 0,
                    buf: vec![0; CHURN_BYTES],
                    payload: inputs.block.clone(),
                }
            })
            .collect();
        FileBench {
            kind,
            configs: Config::ALL.to_vec(),
            inputs,
            slots,
        }
    }

    fn op(&mut self, ci: usize, seq: u64) -> OpResult {
        let inputs = &self.inputs;
        let slot = &mut self.slots[ci];
        let proc = &slot.proc;
        match self.kind {
            FileKind::TreeWalk => {
                let i = inputs.walk[seq as usize % inputs.walk.len()] as usize;
                let buf = &mut slot.buf[..READ_BYTES];
                let t0 = Instant::now();
                let n = read_file(proc, inputs.tree[i].as_str(), buf);
                let ns = elapsed_ns(t0);
                OpResult {
                    ns,
                    ok: matches!(n, Ok(READ_BYTES)) && *buf == inputs.tree_data[i],
                    checked: true,
                }
            }
            FileKind::FdHot => match inputs.fd_ops[seq as usize % inputs.fd_ops.len()] {
                FdOp::Read { file, pos } => {
                    let fd = slot.readers[file as usize];
                    let buf = &mut slot.buf[..1];
                    let t0 = Instant::now();
                    let n = proc
                        .seek(fd, u64::from(pos))
                        .and_then(|()| proc.read(fd, buf));
                    let ns = elapsed_ns(t0);
                    OpResult {
                        ns,
                        ok: matches!(n, Ok(1))
                            && buf[0] == inputs.fd_data[file as usize][pos as usize],
                        checked: true,
                    }
                }
                FdOp::Write { file, pos } => {
                    let fd = slot.writers[file as usize];
                    let data = &inputs.block[pos as usize..pos as usize + FD_WRITE_BYTES];
                    let t0 = Instant::now();
                    let n = proc
                        .seek(fd, u64::from(pos))
                        .and_then(|()| proc.write(fd, data));
                    let ns = elapsed_ns(t0);
                    OpResult {
                        ns,
                        ok: matches!(n, Ok(FD_WRITE_BYTES)),
                        checked: true,
                    }
                }
            },
            FileKind::Churn => {
                let (src, dst) = inputs.churn_paths(seq);
                slot.payload[..8].copy_from_slice(&seq.to_le_bytes());
                let (payload, buf) = (&slot.payload, &mut slot.buf);
                let t0 = Instant::now();
                let result = (|| -> KernelResult<(usize, usize)> {
                    let fd = proc.open(&src, OpenFlags::create_new())?;
                    let written = proc.write(fd, payload);
                    proc.close(fd)?;
                    let written = written?;
                    proc.rename(&src, &dst)?;
                    let read = read_file(proc, &dst, buf)?;
                    proc.unlink(&dst)?;
                    Ok((written, read))
                })();
                let ns = elapsed_ns(t0);
                OpResult {
                    ns,
                    ok: matches!(result, Ok((CHURN_BYTES, CHURN_BYTES))) && buf[..] == payload[..],
                    checked: true,
                }
            }
        }
    }
}

impl Workload for FileBench {
    fn configs(&self) -> &[Config] {
        &self.configs
    }

    fn env(&self, ci: usize) -> &Env {
        &self.slots[ci].env
    }

    fn run_round(&mut self, ci: usize, len: Duration, round: &mut Round) {
        let mut seq = self.slots[ci].cursor;
        closed_loop(len, round, || {
            let r = self.op(ci, seq);
            seq += 1;
            r
        });
        self.slots[ci].cursor = seq;
    }

    fn replay_op(&mut self, ci: usize, seq: u64) -> OpResult {
        self.op(ci, seq)
    }

    fn layer_inputs(&self, ci: usize, seq: u64) -> LayerInputs {
        let inputs = &self.inputs;
        let slot = &self.slots[ci];
        let ctx = slot.proc.task().hook_ctx();
        let path = |s: &str| KPath::new(s).expect("harness paths are valid");
        match self.kind {
            FileKind::TreeWalk => {
                let p = inputs.tree[inputs.walk[seq as usize % inputs.walk.len()] as usize].clone();
                LayerInputs {
                    ctx,
                    hooks: vec![
                        HookCall::Open(Object::regular(p.clone()), AccessMask::READ),
                        HookCall::Permission(Object::regular(p.clone()), AccessMask::READ),
                    ],
                    paths: vec![p],
                    resolves: true,
                    mutations: Vec::new(),
                }
            }
            FileKind::FdHot => {
                let (p, mask) = match inputs.fd_ops[seq as usize % inputs.fd_ops.len()] {
                    FdOp::Read { file, .. } => {
                        (path(&format!("/bench/fd/r{file}")), AccessMask::READ)
                    }
                    FdOp::Write { file, .. } => {
                        (path(&format!("/bench/fd/w{file}")), AccessMask::WRITE)
                    }
                };
                LayerInputs {
                    ctx,
                    hooks: vec![HookCall::Permission(Object::regular(p.clone()), mask)],
                    paths: vec![p],
                    resolves: false,
                    mutations: Vec::new(),
                }
            }
            FileKind::Churn => {
                let (src, dst) = inputs.churn_paths(seq);
                let (src, dst) = (path(&src), path(&dst));
                let src_dir = src.parent().expect("churn files have parents");
                let dst_dir = dst.parent().expect("churn files have parents");
                let name = src.file_name().expect("churn files are named").to_string();
                LayerInputs {
                    ctx,
                    hooks: vec![
                        HookCall::Create(src_dir.clone(), name),
                        HookCall::Open(Object::regular(src.clone()), AccessMask::WRITE),
                        HookCall::Permission(Object::regular(src.clone()), AccessMask::WRITE),
                        HookCall::Rename(Object::regular(src.clone()), dst.clone()),
                        HookCall::Open(Object::regular(dst.clone()), AccessMask::READ),
                        HookCall::Permission(Object::regular(dst.clone()), AccessMask::READ),
                        HookCall::Unlink(Object::regular(dst.clone())),
                    ],
                    // open(create): the failed lookup, then the parent;
                    // rename: source, both parents; read-back open; unlink:
                    // parent twice (DAC check, then the no-follow lookup).
                    paths: vec![
                        src.clone(),
                        src_dir.clone(),
                        src.clone(),
                        src_dir,
                        dst_dir.clone(),
                        dst.clone(),
                        dst_dir.clone(),
                        dst_dir,
                    ],
                    resolves: true,
                    mutations: vec![(src, dst)],
                }
            }
        }
    }

    fn digest(&self) -> u64 {
        self.inputs.digest()
    }
}
