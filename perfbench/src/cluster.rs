//! Booting, observing and tearing down one real `snoopyd` cluster on
//! loopback: one balancer plus the workload's subORAMs, each its own OS
//! process reading one manifest.

use crate::workload::{Threads, Workload};
use snoopy_net::manifest::Manifest;
use snoopy_net::{fetch_metrics, fetch_stats, shutdown_daemon};
use snoopy_telemetry::slo::{parse_prometheus, Scrape};
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, fixed at 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// A spawned daemon; killed and reaped on drop so a failed run leaves no
/// stray process.
struct Daemon {
    child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One running cluster.
pub struct Cluster {
    daemons: Vec<Daemon>,
    /// The manifest every daemon read.
    pub manifest: Manifest,
    dir: PathBuf,
}

fn free_addrs(n: usize) -> io::Result<Vec<String>> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
    listeners.iter().map(|l| Ok(l.local_addr()?.to_string())).collect()
}

fn wait_until_serving(addr: &str, child: &mut Child, timeout: Duration) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        if fetch_stats(addr).is_ok() {
            return Ok(());
        }
        if let Some(status) = child.try_wait()? {
            return Err(io::Error::other(format!("daemon for {addr} exited early: {status}")));
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(format!("daemon at {addr} never came up")));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

impl Cluster {
    /// Writes the workload's manifest under `dir` (which must be empty or
    /// absent) and boots the cluster: subORAMs first, each waited on until
    /// its listener answers (it binds only after building its partition),
    /// then the balancer. Returns once every daemon answers `stats`.
    pub fn boot(
        snoopyd: &Path,
        w: &Workload,
        threads: &Threads,
        seed: u64,
        dir: &Path,
    ) -> io::Result<Cluster> {
        std::fs::create_dir_all(dir)?;
        let addrs = free_addrs(1 + w.suborams)?;
        let manifest = Manifest {
            value_len: crate::workload::VALUE_LEN,
            lambda: crate::workload::LAMBDA,
            seed,
            num_objects: w.objects,
            epoch_ms: crate::workload::EPOCH_MS,
            sub_deadline_ms: 10_000,
            max_replays: 3,
            retain_epochs: 8,
            active_suborams: 0,
            lb_threads: threads.lb_threads,
            sub_threads: threads.sub_threads,
            storage: w.storage,
            store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
            block_bytes: 4096,
            buffer_blocks: 64,
            load_balancers: addrs[..1].to_vec(),
            suborams: addrs[1..].to_vec(),
        };
        let manifest_path = dir.join("cluster.manifest");
        std::fs::write(&manifest_path, manifest.render())?;
        let mut cluster = Cluster { daemons: Vec::new(), manifest, dir: dir.to_path_buf() };
        let spawn = |role: &str, index: usize, ckpt: Option<PathBuf>| -> io::Result<Daemon> {
            let mut cmd = Command::new(snoopyd);
            cmd.arg("--role")
                .arg(role)
                .arg("--index")
                .arg(index.to_string())
                .arg("--manifest")
                .arg(&manifest_path)
                .env("SNOOPY_NET_WORKERS", threads.net_workers.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            if let Some(path) = ckpt {
                cmd.arg("--checkpoint").arg(path);
            }
            Ok(Daemon { child: cmd.spawn()? })
        };
        for i in 0..w.suborams {
            let ckpt = w.checkpoint.then(|| dir.join(format!("sub{i}.ckpt")));
            cluster.daemons.push(spawn("suboram", i, ckpt)?);
            let addr = cluster.manifest.suborams[i].clone();
            let child = &mut cluster.daemons.last_mut().expect("just pushed").child;
            wait_until_serving(&addr, child, Duration::from_secs(60))?;
        }
        cluster.daemons.push(spawn("loadbalancer", 0, None)?);
        let addr = cluster.manifest.load_balancers[0].clone();
        let child = &mut cluster.daemons.last_mut().expect("just pushed").child;
        wait_until_serving(&addr, child, Duration::from_secs(60))?;
        Ok(cluster)
    }

    /// The balancer's client address.
    pub fn lb_addr(&self) -> &str {
        &self.manifest.load_balancers[0]
    }

    fn pids(&self) -> impl Iterator<Item = u32> + '_ {
        self.daemons.iter().map(|d| d.child.id())
    }

    /// User plus system CPU seconds consumed so far by all daemons.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let mut ticks = 0u64;
        for pid in self.pids() {
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the full line (11 and 12 after it).
            let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
            let f: Vec<&str> = rest.split_whitespace().collect();
            let parse = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            ticks += parse(11) + parse(12);
        }
        Ok(ticks as f64 / USER_HZ)
    }

    /// Sum of the daemons' peak resident set sizes (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut kb = 0u64;
        for pid in self.pids() {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
            kb += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .unwrap_or(0);
        }
        Ok(kb as f64 / 1024.0)
    }

    /// Scrapes every daemon over the `metrics` RPC: the balancer's
    /// exposition first, then one per subORAM.
    pub fn scrape(&self) -> io::Result<Vec<Scrape>> {
        let mut out = Vec::new();
        for addr in self.manifest.load_balancers.iter().chain(&self.manifest.suborams) {
            let text = fetch_metrics(addr).map_err(io::Error::other)?;
            out.push(parse_prometheus(&text).map_err(io::Error::other)?);
        }
        Ok(out)
    }

    /// Bytes of every file the cluster wrote (segments and checkpoints).
    pub fn bytes_on_disk(&self) -> u64 {
        fn walk(p: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(p) else { return 0 };
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => walk(&e.path()),
                    Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
                    Err(_) => 0,
                })
                .sum()
        }
        let manifest = std::fs::metadata(self.dir.join("cluster.manifest")).map_or(0, |m| m.len());
        walk(&self.dir) - manifest
    }

    /// Graceful teardown: the shutdown RPC to every daemon, then a bounded
    /// wait for each to exit (stragglers are killed on drop), then removal
    /// of the cluster's directory.
    pub fn shutdown(mut self) {
        for addr in self.manifest.load_balancers.iter().chain(&self.manifest.suborams) {
            let _ = shutdown_daemon(addr);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for d in &mut self.daemons {
            while Instant::now() < deadline {
                match d.child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        }
        self.daemons.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
