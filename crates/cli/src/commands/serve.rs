//! `cubemm serve`: the long-lived multiply service's front end.

use crate::args::{Args, Flags};

pub(super) const SERVE_FLAGS: Flags = Flags {
    command: "serve",
    values: &[&["workers", "queue", "socket"]],
    switches: &[],
};

/// Feeds a request stream to a live pool, one JSON line per job,
/// answering on `output` (shared with the pool's responders). Returns
/// the number of malformed lines answered in-band; an `Err` is a broken
/// *stream* (the exit-4 case), which per-job failures never are.
pub(super) fn serve_stream<R, W>(
    input: R,
    output: &std::sync::Arc<std::sync::Mutex<W>>,
    pool: &cubemm_serve::ServePool,
) -> std::io::Result<u64>
where
    R: std::io::BufRead,
    W: std::io::Write + Send + 'static,
{
    use cubemm_serve::{JobResponse, JobStatus, Responder};

    fn emit<W: std::io::Write>(out: &std::sync::Mutex<W>, resp: &JobResponse) {
        let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(w, "{}", resp.encode());
        let _ = w.flush();
    }

    let mut malformed = 0u64;
    for line in input.lines() {
        if cubemm_serve::shutdown::requested() {
            break;
        }
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match cubemm_serve::parse_request(line) {
            Ok(req) => {
                let out = std::sync::Arc::clone(output);
                let responder: Responder = std::sync::Arc::new(move |resp| emit(&out, &resp));
                pool.submit(req, responder);
            }
            Err((id, error)) => {
                // A bad line is answered, not fatal: the stream (and
                // every queued job) lives on.
                malformed += 1;
                emit(
                    output,
                    &JobResponse {
                        id,
                        status: JobStatus::Malformed { error },
                    },
                );
            }
        }
    }
    Ok(malformed)
}

/// Accept loop for `--socket PATH`: each connection gets its own
/// reader thread against the shared pool; SIGTERM stops accepting and
/// the scope joins every connection before the caller drains.
#[cfg(unix)]
fn serve_socket(path: &str, pool: &cubemm_serve::ServePool) -> std::io::Result<u64> {
    use std::io::BufReader;
    use std::os::unix::net::UnixListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let malformed = AtomicU64::new(0);
    let result = std::thread::scope(|scope| -> std::io::Result<()> {
        loop {
            if cubemm_serve::shutdown::requested() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let malformed = &malformed;
                    scope.spawn(move || {
                        let Ok(read_half) = stream.try_clone() else {
                            return;
                        };
                        let output = Arc::new(Mutex::new(stream));
                        if let Ok(m) = serve_stream(BufReader::new(read_half), &output, pool) {
                            malformed.fetch_add(m, Ordering::Relaxed);
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
    });
    let _ = std::fs::remove_file(path);
    result.map(|()| malformed.load(Ordering::Relaxed))
}

/// `cubemm serve [--workers N] [--queue N] [--socket PATH]`.
pub fn serve(argv: &[String]) -> Result<i32, String> {
    use cubemm_serve::{ServeConfig, ServePool};

    let args = Args::parse(argv, &SERVE_FLAGS)?;
    let workers: usize = args.get_or("workers", 4)?;
    let queue_cap: usize = args.get_or("queue", 256)?;
    if workers == 0 || queue_cap == 0 {
        return Err("--workers and --queue must be at least 1".into());
    }
    cubemm_serve::shutdown::install();
    let pool = ServePool::start(ServeConfig { workers, queue_cap });
    let streamed = match args.raw("socket") {
        Some(path) => {
            #[cfg(unix)]
            {
                eprintln!("cubemm serve: listening on {path} ({workers} workers)");
                serve_socket(path, &pool)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                drop(pool);
                return Err("--socket requires a Unix platform".into());
            }
        }
        None => {
            let stdin = std::io::stdin();
            let output = std::sync::Arc::new(std::sync::Mutex::new(std::io::stdout()));
            serve_stream(stdin.lock(), &output, &pool)
        }
    };
    let stats = pool.drain();
    let malformed = *streamed.as_ref().unwrap_or(&0);
    eprintln!(
        "cubemm serve: drained — {} submitted, {} ok, {} failed, {} deadline, \
         {} rejected, {} overloaded, {} shed, {} malformed, {} quarantines, {} reboots",
        stats.submitted,
        stats.ok,
        stats.failed,
        stats.deadline_missed,
        stats.rejected,
        stats.overloaded,
        stats.shed,
        malformed,
        stats.quarantines,
        stats.reboots,
    );
    match streamed {
        Ok(_) => Ok(0),
        Err(e) => {
            eprintln!("error: request stream broke: {e}");
            Ok(4)
        }
    }
}
