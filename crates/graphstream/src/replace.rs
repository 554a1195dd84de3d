//! [`replace_file`] — the one way a written file reaches its final name.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Replaces the file at `path` with the bytes `write` produces, so that a
/// reader of `path` sees the old file or the whole new one, never a torn
/// tail (a torn `fedge` would read back as a valid, shorter trace). In
/// order:
/// 1. `write` fills `{path}.part` through a `BufWriter`, which is flushed
///    and fsynced;
/// 2. with `prev`, an existing `path` is renamed to `prev`;
/// 3. the `.part` is renamed over `path`;
/// 4. the directory holding `path` is fsynced (`.` for a bare file name;
///    unix only), so the renames survive a power cut.
///
/// On any error the `.part` is removed and `path` is left as it was. With
/// `prev`, a failure after step 2 leaves the last good file at `prev`.
/// Two calls on one `path` must not overlap: they would share the `.part`.
///
/// # Errors
/// `write`'s error, or the first I/O error of a step (create, flush and
/// fsync, rename, directory fsync), naming the file it failed on.
pub fn replace_file<T, E: From<io::Error>>(
    path: &Path,
    prev: Option<&Path>,
    write: impl FnOnce(&mut dyn Write) -> Result<T, E>,
) -> Result<T, E> {
    let part = sibling(path, ".part");
    let result = (|| -> Result<T, E> {
        let file = File::create(&part).map_err(|e| named(e, "cannot create", &part, None))?;
        let mut w = BufWriter::new(file);
        let value = write(&mut w)?;
        w.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        if let Some(prev) = prev.filter(|_| path.exists()) {
            fs::rename(path, prev).map_err(|e| named(e, "cannot move", path, Some(prev)))?;
        }
        fs::rename(&part, path).map_err(|e| named(e, "cannot move", &part, Some(path)))?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        if cfg!(unix) {
            File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| named(e, "cannot sync directory", dir, None))?;
        }
        Ok(value)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&part);
    }
    result
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// `e` with the step and file(s) it failed on in front of its message.
fn named(e: io::Error, what: &str, from: &Path, to: Option<&Path>) -> io::Error {
    let to = to.map_or(String::new(), |to| format!(" to `{}`", to.display()));
    io::Error::new(e.kind(), format!("{what} `{}`{to}: {e}", from.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh, empty directory under the system temp dir.
    fn temp_dir(line: u32) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphstream-replace-{}-{line}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn put(bytes: &'static [u8]) -> impl FnOnce(&mut dyn Write) -> io::Result<usize> {
        move |w| w.write_all(bytes).map(|()| bytes.len())
    }

    #[test]
    fn a_failing_write_leaves_the_old_file_and_no_part() {
        let dir = temp_dir(line!());
        let path = dir.join("out.bin");
        replace_file(&path, None, put(b"old contents")).expect("first write");
        let err = replace_file(&path, None, |w| {
            w.write_all(b"half of the new")?;
            Err::<(), _>(io::Error::other("source broke"))
        })
        .expect_err("write fails");
        assert_eq!(err.to_string(), "source broke");
        assert_eq!(fs::read(&path).expect("old file"), b"old contents");
        assert!(!sibling(&path, ".part").exists(), ".part left behind");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failing_rename_over_a_directory_leaves_no_part() {
        let dir = temp_dir(line!());
        let path = dir.join("taken");
        fs::create_dir(&path).expect("target directory");
        let err = replace_file(&path, None, put(b"bytes")).expect_err("rename fails");
        assert!(err.to_string().contains("cannot move"), "{err}");
        assert!(path.is_dir(), "the directory stays");
        assert!(!sibling(&path, ".part").exists(), ".part left behind");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prev_keeps_the_old_file_and_the_new_one_lands() {
        let dir = temp_dir(line!());
        let (path, prev) = (dir.join("state"), dir.join("state.prev"));
        // No file yet: nothing to rotate.
        replace_file(&path, Some(&prev), put(b"first")).expect("first");
        assert!(!prev.exists());
        let n = replace_file(&path, Some(&prev), put(b"second")).expect("second");
        assert_eq!(n, 6, "the closure's value comes back");
        assert_eq!(fs::read(&path).expect("new"), b"second");
        assert_eq!(fs::read(&prev).expect("old"), b"first");
        assert!(!sibling(&path, ".part").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_nested_path_and_a_bare_file_name_both_work() {
        let nested = temp_dir(line!()).join("a").join("b");
        fs::create_dir_all(&nested).expect("nested dir");
        replace_file(&nested.join("f"), None, put(b"nested")).expect("nested path");
        assert_eq!(fs::read(nested.join("f")).expect("read"), b"nested");
        // A bare name's parent is the empty path, which must mean `.` (the
        // working directory, here the package root).
        let bare = PathBuf::from(format!("replace-file-bare-{}.tmp", std::process::id()));
        let result = replace_file(&bare, None, put(b"bare"));
        let read = fs::read(&bare);
        fs::remove_file(&bare).ok();
        result.expect("bare file name");
        assert_eq!(read.expect("read"), b"bare");
        assert!(!sibling(&bare, ".part").exists());
        fs::remove_dir_all(nested.parent().and_then(Path::parent).expect("root")).ok();
    }
}
