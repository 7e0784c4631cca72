//! Crash-safe trace output.
//!
//! Trace files are the replay substrate: a half-written JSONL file used to
//! mean a hard parse failure and a lost run. This module gives the
//! writers defined crash semantics, and [`crate::replay::EventStream`]
//! reads what they leave:
//!
//! * [`TraceWriter`] streams to `<path>.partial` and renames to the final
//!   path only on [`TraceWriter::finalize`], so the final path either holds
//!   a complete trace or nothing at all. A process killed mid-run leaves
//!   the `.partial` file behind, which [`crate::replay::EventStream::open`]
//!   falls back to and [`crate::replay::EventStream::salvage`] recovers
//!   the valid prefix of. [`TraceWriter::extend`] appends to a published
//!   trace under the same contract.
//! * [`atomic_write`] is the one-shot variant for whole artifacts
//!   (checkpoints, reports): temp file + rename, never a torn file.
//!
//! All direct `File::create`/`fs::write` calls for trace-shaped output in
//! the obs and sim crates are required (by the `no-raw-trace-write` lint in
//! `bshm-analyze`) to route through this module.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Suffix appended to the destination path while a trace is in flight.
pub const PARTIAL_SUFFIX: &str = ".partial";

/// The in-flight path for a destination: `<path>.partial`.
#[must_use]
pub fn partial_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(PARTIAL_SUFFIX);
    PathBuf::from(name)
}

/// A crash-safe line-oriented writer: bytes go to `<path>.partial`, which
/// becomes `<path>` only when [`TraceWriter::finalize`] succeeds.
///
/// With `flush_each` enabled every completed line is flushed to the OS, so
/// a killed process loses at most the line being written — the regime
/// [`crate::replay::EventStream::salvage`] is built for. Without it small
/// writes gather in an 8 KiB buffer, and a kill can lose what it holds,
/// possibly ending the file mid-line (the `.partial` name still marks the
/// file as incomplete). A write of 8 KiB or more bypasses the buffer and
/// goes straight to the file: [`crate::Recorder`] hands over whole lines
/// in 64 KiB batches, so its `.partial` always ends on a line boundary.
#[derive(Debug)]
pub struct TraceWriter {
    final_path: PathBuf,
    partial: PathBuf,
    writer: Option<BufWriter<File>>,
    flush_each: bool,
}

impl TraceWriter {
    /// Opens `<path>.partial` for writing, truncating any stale leftover.
    ///
    /// # Errors
    /// Propagates filesystem errors with the offending path.
    pub fn create(path: impl Into<PathBuf>) -> Result<TraceWriter, String> {
        let final_path = path.into();
        let partial = partial_path(&final_path);
        // No suppression needed: this module IS the sanctioned writer the
        // no-raw-trace-write lint points everyone else at.
        let file = File::create(&partial).map_err(|e| format!("{}: {e}", partial.display()))?;
        Ok(TraceWriter {
            final_path,
            partial,
            writer: Some(BufWriter::new(file)),
            flush_each: false,
        })
    }

    /// Reopens a published trace for appending: copies `<path>` to
    /// `<path>.partial` and appends there, so [`TraceWriter::finalize`]
    /// publishes the old bytes plus the new lines in one rename and
    /// readers of `<path>` never see a torn file. A missing `<path>`
    /// behaves like [`TraceWriter::create`].
    ///
    /// # Errors
    /// Propagates filesystem errors with the offending path.
    pub fn extend(path: impl Into<PathBuf>) -> Result<TraceWriter, String> {
        let final_path = path.into();
        if !final_path.exists() {
            return TraceWriter::create(final_path);
        }
        let partial = partial_path(&final_path);
        std::fs::copy(&final_path, &partial).map_err(|e| {
            format!(
                "copying {} -> {}: {e}",
                final_path.display(),
                partial.display()
            )
        })?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&partial)
            .map_err(|e| format!("{}: {e}", partial.display()))?;
        Ok(TraceWriter {
            final_path,
            partial,
            writer: Some(BufWriter::new(file)),
            flush_each: false,
        })
    }

    /// Sets flush-per-line mode: every write ending in `\n` is flushed.
    #[must_use]
    pub fn flush_each(mut self, on: bool) -> Self {
        self.flush_each = on;
        self
    }

    /// The destination the trace will have after a successful finalize.
    #[must_use]
    pub fn final_path(&self) -> &Path {
        &self.final_path
    }

    /// The in-flight `.partial` path bytes are going to right now.
    #[must_use]
    pub fn partial_path(&self) -> &Path {
        &self.partial
    }

    /// Flushes and atomically renames `<path>.partial` to `<path>`.
    ///
    /// Idempotent: a second call after success is a no-op, so callers may
    /// finalize defensively (e.g. both `Probe::finish` and a drop guard).
    ///
    /// # Errors
    /// Propagates flush or rename errors; the `.partial` file is left in
    /// place on failure so nothing is lost.
    pub fn finalize(&mut self) -> Result<(), String> {
        let Some(mut w) = self.writer.take() else {
            return Ok(());
        };
        w.flush()
            .map_err(|e| format!("flushing {}: {e}", self.partial.display()))?;
        drop(w);
        std::fs::rename(&self.partial, &self.final_path).map_err(|e| {
            format!(
                "renaming {} -> {}: {e}",
                self.partial.display(),
                self.final_path.display()
            )
        })
    }

    /// Drops the writer without renaming, leaving the `.partial` file as
    /// the crash artifact (what a killed process would leave behind).
    pub fn abandon(mut self) {
        self.writer = None;
    }
}

impl Write for TraceWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let Some(w) = self.writer.as_mut() else {
            return Err(std::io::Error::other("trace writer already finalized"));
        };
        let n = w.write(buf)?;
        if self.flush_each && buf[..n].ends_with(b"\n") {
            w.flush()?;
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self.writer.as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }
}

/// Writes `contents` to `path` atomically: temp file + rename, so readers
/// never observe a torn artifact. Used for checkpoints and final reports.
///
/// # Errors
/// Propagates filesystem errors with the offending path.
pub fn atomic_write(path: &Path, contents: &str) -> Result<(), String> {
    let partial = partial_path(path);
    let mut file = File::create(&partial).map_err(|e| format!("{}: {e}", partial.display()))?;
    file.write_all(contents.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("writing {}: {e}", partial.display()))?;
    drop(file);
    std::fs::rename(&partial, path)
        .map_err(|e| format!("renaming {} -> {}: {e}", partial.display(), path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::replay::{EventStream, Salvage};
    use bshm_core::job::JobId;
    use bshm_core::machine::TypeIndex;
    use bshm_core::schedule::MachineId;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bshm-sink-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Arrival {
                t: 1,
                job: JobId(0),
                size: 2,
            },
            TraceEvent::MachineOpen {
                t: 1,
                machine: MachineId(0),
                machine_type: TypeIndex(0),
            },
            TraceEvent::Departure {
                t: 5,
                job: JobId(0),
                machine: MachineId(0),
            },
        ]
    }

    fn salvage_text(text: &str) -> Salvage {
        EventStream::new(text.as_bytes()).salvage().unwrap()
    }

    fn salvage_file(path: &Path) -> Salvage {
        EventStream::open(path).unwrap().salvage().unwrap()
    }

    fn jsonl(events: &[TraceEvent]) -> String {
        events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect()
    }

    #[test]
    fn finalize_renames_partial_to_final() {
        let path = tmp("finalize.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = TraceWriter::create(&path).unwrap();
        w.write_all(jsonl(&sample_events()).as_bytes()).unwrap();
        assert!(w.partial_path().exists());
        assert!(!path.exists(), "final path must not exist before finalize");
        w.finalize().unwrap();
        w.finalize().unwrap(); // idempotent
        assert!(path.exists());
        assert!(!partial_path(&path).exists());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::replay::parse_jsonl(&text).unwrap().len(), 3);
    }

    #[test]
    fn abandon_leaves_only_partial() {
        let path = tmp("abandon.jsonl");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(partial_path(&path));
        let mut w = TraceWriter::create(&path).unwrap().flush_each(true);
        w.write_all(jsonl(&sample_events()).as_bytes()).unwrap();
        w.abandon();
        assert!(!path.exists());
        assert!(partial_path(&path).exists());
        // Salvage finds the partial twin via the final path.
        let s = salvage_file(&path);
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.dropped_lines, 0);
        assert_eq!(s.dropped_bytes, 0);
    }

    #[test]
    fn extend_of_missing_file_behaves_like_create() {
        let path = tmp("extend-missing.jsonl");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(partial_path(&path));
        let mut w = TraceWriter::extend(&path).unwrap();
        w.write_all(jsonl(&sample_events()).as_bytes()).unwrap();
        assert!(!path.exists(), "final path must not exist before finalize");
        w.finalize().unwrap();
        assert!(!partial_path(&path).exists());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            jsonl(&sample_events())
        );
    }

    #[test]
    fn extend_appends_after_the_published_bytes() {
        let path = tmp("extend-append.jsonl");
        let events = sample_events();
        let mut w = TraceWriter::create(&path).unwrap();
        w.write_all(jsonl(&events[..1]).as_bytes()).unwrap();
        w.finalize().unwrap();
        let mut w = TraceWriter::extend(&path).unwrap();
        w.write_all(jsonl(&events[1..]).as_bytes()).unwrap();
        // Until finalize, readers still see only the published prefix.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), jsonl(&events[..1]));
        w.finalize().unwrap();
        assert!(!partial_path(&path).exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), jsonl(&events));
    }

    #[test]
    fn abandoned_extend_leaves_the_published_file_untouched() {
        let path = tmp("extend-abandon.jsonl");
        let events = sample_events();
        let mut w = TraceWriter::create(&path).unwrap();
        w.write_all(jsonl(&events[..2]).as_bytes()).unwrap();
        w.finalize().unwrap();
        let mut w = TraceWriter::extend(&path).unwrap().flush_each(true);
        let torn = jsonl(&events[2..]);
        w.write_all(&torn.as_bytes()[..torn.len() - 5]).unwrap();
        w.flush().unwrap();
        w.abandon();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), jsonl(&events[..2]));
        // The abandoned `.partial` holds the published prefix plus a torn
        // line, which salvage recovers up to.
        let text = std::fs::read_to_string(partial_path(&path)).unwrap();
        let s = salvage_text(&text);
        assert_eq!(s.events, events[..2].to_vec());
        assert_eq!(s.dropped_lines, 1);
        std::fs::remove_file(&path).unwrap();
        let s = salvage_file(&path);
        assert_eq!(s.events, events[..2].to_vec());
        let _ = std::fs::remove_file(partial_path(&path));
    }

    #[test]
    fn flush_each_persists_every_line() {
        let path = tmp("flush-each.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = TraceWriter::create(&path).unwrap().flush_each(true);
        for e in sample_events() {
            let line = serde_json::to_string(&e).unwrap();
            writeln!(w, "{line}").unwrap();
            // Every completed line is already on disk before finalize.
            let on_disk = std::fs::read_to_string(w.partial_path()).unwrap();
            assert!(on_disk.ends_with(&(line + "\n")));
        }
        w.finalize().unwrap();
    }

    #[test]
    fn salvage_recovers_valid_prefix_of_truncated_trace() {
        let full = jsonl(&sample_events());
        // Chop the final line mid-JSON, as a kill mid-write would.
        let cut = full.len() - 10;
        let truncated = &full[..cut];
        let s = salvage_text(truncated);
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.dropped_lines, 1);
        // The torn tail is everything past the two intact lines.
        let intact = jsonl(&sample_events()[..2]).len();
        assert_eq!(s.dropped_bytes, (truncated.len() - intact) as u64);
        assert_eq!(s.events, sample_events()[..2].to_vec());
        // The strict parser refuses the same text.
        assert!(crate::replay::parse_jsonl(truncated).is_err());
    }

    #[test]
    fn salvage_drops_everything_after_first_damage() {
        let events = sample_events();
        let mut text = jsonl(&events[..1]);
        text.push_str("{\"torn\n");
        text.push_str(&jsonl(&events[1..]));
        let s = salvage_text(&text);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.dropped_lines, 3);
        let intact = jsonl(&events[..1]).len();
        assert_eq!(s.dropped_bytes, (text.len() - intact) as u64);
    }

    #[test]
    fn salvage_of_clean_trace_drops_nothing() {
        let s = salvage_text(&jsonl(&sample_events()));
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.dropped_lines, 0);
        assert_eq!(s.dropped_bytes, 0);
        let s = salvage_text("");
        assert!(s.events.is_empty());
        assert_eq!(s.dropped_lines, 0);
        assert_eq!(s.dropped_bytes, 0);
    }

    #[test]
    fn atomic_write_round_trips() {
        let path = tmp("atomic.json");
        atomic_write(&path, "{\"ok\":true}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}\n");
        assert!(!partial_path(&path).exists());
        // Overwrite is atomic too.
        atomic_write(&path, "{\"ok\":false}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":false}\n");
    }
}
