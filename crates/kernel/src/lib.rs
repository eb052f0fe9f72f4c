//! # sack-kernel — simulated Linux kernel substrate
//!
//! A behavioural, in-process model of the parts of the Linux kernel that the
//! SACK paper (DATE 2025) builds on: processes with credentials and POSIX
//! capabilities, a VFS with regular files, directories and char-device
//! nodes, pipes and stream sockets, a syscall layer, the LSM hook framework
//! with module stacking, and securityfs.
//!
//! Security modules (the AppArmor baseline in `sack-apparmor`, SACK itself
//! in `sack-core`) implement [`lsm::SecurityModule`] and are stacked at boot
//! via [`kernel::KernelBuilder`], reproducing `CONFIG_LSM="SACK,AppArmor"`.
//!
//! ## Example
//!
//! ```
//! use sack_kernel::kernel::Kernel;
//! use sack_kernel::cred::Credentials;
//! use sack_kernel::file::OpenFlags;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = Kernel::boot_default();
//! let shell = kernel.spawn(Credentials::root());
//! shell.write_file("/etc/motd", b"welcome")?;
//! assert_eq!(shell.read_to_vec("/etc/motd")?, b"welcome");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cred;
pub mod device;
pub mod error;
pub mod file;
pub mod ipc;
pub mod kernel;
pub mod lsm;
pub mod path;
pub mod sched;
pub mod securityfs;
pub mod smp;
pub mod sync;
pub mod task;
pub mod time;
pub mod trace;
pub mod types;
pub mod uctx;
pub mod vfs;

pub use cred::{Capability, CapabilitySet, Credentials, Gid, Uid};
pub use error::{Errno, KernelError, KernelResult};
pub use kernel::{Kernel, KernelBuilder};
pub use lsm::{AccessMask, HookCtx, ObjectKind, ObjectRef, SecurityModule, SocketFamily};
pub use path::KPath;
pub use sync::Rcu;
pub use trace::{TraceEvent, TraceHook, TraceHub, TraceVerdict, Tracepoint};
pub use types::{DeviceId, Fd, InodeId, Mode, Pid};
pub use uctx::UserContext;
