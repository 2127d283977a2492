//! Process hygiene for the served `tpnc` processes: spawn, readiness,
//! peak memory, and teardown (router before shards, since the router
//! respawns dead shards).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
}

const SIGKILL: i32 = 9;
const PR_SET_CHILD_SUBREAPER: i32 = 36;

/// How long a spawned server may take to answer its first request.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Makes this process the reaper of its orphaned descendants, so shards
/// whose router was torn down can be waited for here.
pub fn become_subreaper() {
    // SAFETY: prctl(PR_SET_CHILD_SUBREAPER, 1) takes no pointers and only
    // changes this process's own reaping attribute.
    unsafe {
        prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0);
    }
}

/// `(pid, parent pid, command name)` of every live process.
fn processes() -> Vec<(u32, u32, String)> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| {
            let pid: u32 = e.ok()?.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // "pid (comm) state ppid ...": comm may hold spaces, so split
            // at the last parenthesis.
            let open = stat.find('(')?;
            let close = stat.rfind(')')?;
            let comm = stat[open + 1..close].to_string();
            let mut rest = stat[close + 2..].split(' ');
            let state = rest.next()?;
            if state == "Z" || state == "X" {
                return None;
            }
            let ppid = rest.next()?.parse().ok()?;
            Some((pid, ppid, comm))
        })
        .collect()
}

/// Refuses to start while a `tpnc` from an earlier run is alive: it would
/// take one of the machine's cores.
pub fn refuse_strays() -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let strays: Vec<u32> = processes()
            .into_iter()
            .filter(|(_, _, comm)| comm == "tpnc")
            .map(|(pid, _, _)| pid)
            .collect();
        if strays.is_empty() {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "refusing to start: tpnc processes {strays:?} from an earlier run are alive"
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn children_of(parent: u32) -> Vec<u32> {
    processes()
        .into_iter()
        .filter(|&(_, ppid, _)| ppid == parent)
        .map(|(pid, _, _)| pid)
        .collect()
}

/// `VmHWM` (peak resident set) of one process, in KiB.
fn vm_hwm_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading status of {pid}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM for {pid}"))
}

/// Sends one request line on a fresh connection and returns the reply.
pub fn ask(socket: &Path, line: &str) -> std::io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply)
}

/// One served process tree: `tpnc serve`, or `tpnc route` plus shards.
pub struct Server {
    child: Option<Child>,
    front: PathBuf,
    shard_sockets: Vec<PathBuf>,
    shards: Vec<u32>,
}

impl Server {
    /// Spawns `tpnc serve --socket SOCKET --jobs JOBS`.
    pub fn serve(tpnc: &Path, socket: &Path, jobs: usize) -> Result<Server, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(tpnc)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--jobs")
            .arg(jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning tpnc serve: {e}"))?;
        Ok(Server {
            child: Some(child),
            front: socket.to_path_buf(),
            shard_sockets: Vec::new(),
            shards: Vec::new(),
        })
    }

    /// Spawns `tpnc route --socket SOCKET --shards N --jobs JOBS --store DIR`.
    pub fn route(
        tpnc: &Path,
        socket: &Path,
        shards: usize,
        jobs: usize,
        store: &Path,
    ) -> Result<Server, String> {
        let shard_sockets: Vec<PathBuf> = (0..shards)
            .map(|i| PathBuf::from(format!("{}.shard-{i}", socket.display())))
            .collect();
        let _ = std::fs::remove_file(socket);
        for s in &shard_sockets {
            let _ = std::fs::remove_file(s);
        }
        let child = Command::new(tpnc)
            .arg("route")
            .arg("--socket")
            .arg(socket)
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--jobs")
            .arg(jobs.to_string())
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning tpnc route: {e}"))?;
        Ok(Server {
            child: Some(child),
            front: socket.to_path_buf(),
            shard_sockets,
            shards: Vec::new(),
        })
    }

    pub fn front(&self) -> &Path {
        &self.front
    }

    pub fn shard_sockets(&self) -> &[PathBuf] {
        &self.shard_sockets
    }

    /// Waits until every process answers its first request: each shard
    /// directly, then the front (so the router's first forward finds its
    /// shard up and never sleeps in its connect-retry loop).
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        let sockets: Vec<PathBuf> = self
            .shard_sockets
            .iter()
            .cloned()
            .chain(std::iter::once(self.front.clone()))
            .collect();
        for socket in &sockets {
            loop {
                match ask(socket, "{\"id\":0,\"verb\":\"metrics\"}") {
                    Ok(reply) if reply.contains("\"ok\":true") => break,
                    Ok(reply) if !reply.is_empty() => {
                        return Err(format!("{} answered {reply}", socket.display()))
                    }
                    _ => {}
                }
                if Instant::now() > deadline {
                    return Err(format!("{} never answered", socket.display()));
                }
                if let Some(status) = self
                    .child
                    .as_mut()
                    .and_then(|c| c.try_wait().ok().flatten())
                {
                    return Err(format!("tpnc exited early ({status})"));
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        if !self.shard_sockets.is_empty() {
            let router = self.child.as_ref().expect("running").id();
            self.shards = children_of(router);
            if self.shards.len() != self.shard_sockets.len() {
                return Err(format!(
                    "router {router} has children {:?}, expected {} shards",
                    self.shards,
                    self.shard_sockets.len()
                ));
            }
        }
        Ok(())
    }

    /// Peak resident set summed over the process tree, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let mut kib = 0;
        for pid in self
            .child
            .iter()
            .map(Child::id)
            .chain(self.shards.iter().copied())
        {
            kib += vm_hwm_kib(pid)?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// Tears the tree down: the router (or serve) first, then each shard,
    /// waiting for every process to end.
    pub fn stop(&mut self) {
        if let Some(mut child) = self.child.take() {
            if self.shards.is_empty() && !self.shard_sockets.is_empty() {
                self.shards = children_of(child.id());
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        for pid in self.shards.drain(..) {
            let pid = pid as i32;
            // SAFETY: kill and waitpid take plain integers and a valid
            // pointer to a local; the pid is a shard this process reaps as
            // subreaper, so it cannot have been recycled before the wait.
            let reaped = unsafe {
                kill(pid, SIGKILL);
                let mut status = 0;
                waitpid(pid, &mut status, 0) == pid
            };
            if !reaped {
                // Not our child after all: poll until it is gone.
                let deadline = Instant::now() + Duration::from_secs(10);
                while Path::new(&format!("/proc/{pid}")).exists() && Instant::now() < deadline {
                    let state =
                        std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
                    if state.contains(") Z ") {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        let _ = std::fs::remove_file(&self.front);
        for s in &self.shard_sockets {
            let _ = std::fs::remove_file(s);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
