//! The shell and the console utilities ported from xv6.
//!
//! Proto "ported all console apps from xv6, including shell (enhanced with
//! script execution) and utilities as ls, cat, and echo" (§3). The shell
//! reads commands from the keyboard (or from an `/etc/rc`-style script at
//! boot — the `initrc` task of Lab 4), spawns programs from `/bin`, waits
//! for them and prints their output to the console.

use kernel::usercall::{StepResult, UserCtx, UserProgram};
use kernel::vfs::OpenFlags;
use kernel::KernelError;

/// The console utilities the shell can spawn (each is also a standalone
/// registered program, exactly like xv6's separate binaries).
pub const COREUTILS: [&str; 5] = ["ls", "cat", "echo", "wc", "uptime"];

/// A single console utility invocation.
#[derive(Debug)]
pub struct Coreutil {
    which: String,
    args: Vec<String>,
}

impl Coreutil {
    /// Creates a utility by name with its arguments.
    pub fn new(which: &str, args: &[String]) -> Self {
        Coreutil {
            which: which.to_string(),
            args: args.to_vec(),
        }
    }

    fn read_file(ctx: &mut UserCtx<'_>, path: &str) -> Result<Vec<u8>, KernelError> {
        let fd = ctx.open(path, OpenFlags::rdonly())?;
        let mut out = Vec::new();
        loop {
            let chunk = ctx.read(fd, 16 * 1024)?;
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
        }
        ctx.close(fd)?;
        Ok(out)
    }
}

impl UserProgram for Coreutil {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        let code = match self.which.as_str() {
            "echo" => {
                ctx.print(&self.args.join(" "));
                0
            }
            "ls" => {
                let dir = self.args.first().map(String::as_str).unwrap_or("/");
                match ctx.list_dir(dir) {
                    Ok(entries) => {
                        ctx.print(&entries.join("  "));
                        0
                    }
                    Err(e) => {
                        ctx.print(&format!("ls: {e}"));
                        1
                    }
                }
            }
            "cat" => {
                let mut code = 0;
                for path in &self.args.clone() {
                    match Self::read_file(ctx, path) {
                        Ok(data) => ctx.print(&String::from_utf8_lossy(&data)),
                        Err(e) => {
                            ctx.print(&format!("cat: {path}: {e}"));
                            code = 1;
                        }
                    }
                }
                code
            }
            "wc" => {
                let mut code = 0;
                for path in &self.args.clone() {
                    match Self::read_file(ctx, path) {
                        Ok(data) => {
                            let lines = data.iter().filter(|b| **b == b'\n').count();
                            let words = String::from_utf8_lossy(&data).split_whitespace().count();
                            ctx.print(&format!("{lines} {words} {} {path}", data.len()));
                        }
                        Err(e) => {
                            ctx.print(&format!("wc: {path}: {e}"));
                            code = 1;
                        }
                    }
                }
                code
            }
            "uptime" => {
                let us = ctx.now_us();
                ctx.print(&format!("up {:.3} s", us as f64 / 1e6));
                0
            }
            other => {
                ctx.print(&format!("{other}: not implemented"));
                1
            }
        };
        StepResult::Exited(code)
    }
    fn program_name(&self) -> &str {
        "coreutil"
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ShellState {
    Init,
    ReadingInput,
    WaitingChild,
}

/// The shell.
#[derive(Debug)]
pub struct Shell {
    state: ShellState,
    /// Commands from a startup script (run before interactive input).
    script: Vec<String>,
    script_path: Option<String>,
    event_fd: Option<i32>,
    line: String,
    /// Executed command count (for tests).
    pub commands_run: u64,
    /// Exit after the script finishes instead of going interactive.
    pub exit_after_script: bool,
}

impl Shell {
    /// Creates a shell from exec arguments: `[script-path]`.
    pub fn from_args(args: &[String]) -> Self {
        Shell {
            state: ShellState::Init,
            script: Vec::new(),
            script_path: args.first().cloned(),
            event_fd: None,
            line: String::new(),
            commands_run: 0,
            exit_after_script: !args.is_empty(),
        }
    }

    /// Creates an interactive shell.
    pub fn interactive() -> Self {
        Self::from_args(&[])
    }

    /// Parses a command line into (program, args), handling the built-in
    /// `#` comments of rc scripts.
    pub fn parse(line: &str) -> Option<(String, Vec<String>)> {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return None;
        }
        let mut parts = line.split_whitespace();
        let prog = parts.next()?.to_string();
        Some((prog, parts.map(|s| s.to_string()).collect()))
    }

    fn run_command(&mut self, ctx: &mut UserCtx<'_>, line: &str) -> bool {
        let Some((prog, args)) = Self::parse(line) else {
            return false;
        };
        let path = if prog.starts_with('/') {
            prog.clone()
        } else {
            format!("/bin/{prog}")
        };
        match ctx.spawn(&path, &args) {
            Ok(pid) => {
                self.commands_run += 1;
                ctx.print(&format!("$ {line} [pid {pid}]"));
                true
            }
            Err(e) => {
                ctx.print(&format!("sh: {prog}: {e}"));
                false
            }
        }
    }
}

impl UserProgram for Shell {
    fn step(&mut self, ctx: &mut UserCtx<'_>) -> StepResult {
        match self.state {
            ShellState::Init => {
                // Load the rc script if one was given (Lab 4's initrc task).
                if let Some(path) = self.script_path.clone() {
                    if let Ok(fd) = ctx.open(&path, OpenFlags::rdonly()) {
                        let mut data = Vec::new();
                        while let Ok(chunk) = ctx.read(fd, 4096) {
                            if chunk.is_empty() {
                                break;
                            }
                            data.extend_from_slice(&chunk);
                        }
                        let _ = ctx.close(fd);
                        self.script = String::from_utf8_lossy(&data)
                            .lines()
                            .map(|l| l.to_string())
                            .collect();
                    }
                }
                ctx.print("proto shell ready");
                self.state = ShellState::ReadingInput;
                StepResult::Continue
            }
            ShellState::ReadingInput => {
                // Script lines first.
                if !self.script.is_empty() {
                    let line = self.script.remove(0);
                    if self.run_command(ctx, &line) {
                        self.state = ShellState::WaitingChild;
                    }
                    return StepResult::Continue;
                }
                if self.exit_after_script {
                    return StepResult::Exited(0);
                }
                // Interactive: read key events, build a line, run on Enter.
                if self.event_fd.is_none() {
                    self.event_fd = ctx.open("/dev/events", OpenFlags::rdonly()).ok();
                }
                let Some(fd) = self.event_fd else {
                    return StepResult::Exited(1);
                };
                match ctx.read_key_event(fd) {
                    Ok(Some(ev)) => {
                        if let Some(c) = ev.to_char() {
                            if c == '\n' {
                                let line = std::mem::take(&mut self.line);
                                if line.trim() == "exit" {
                                    return StepResult::Exited(0);
                                }
                                if self.run_command(ctx, &line) {
                                    self.state = ShellState::WaitingChild;
                                }
                            } else {
                                self.line.push(c);
                            }
                        }
                        StepResult::Continue
                    }
                    Ok(None) => StepResult::Continue,
                    Err(KernelError::WouldBlock) => StepResult::Continue,
                    Err(_) => StepResult::Exited(1),
                }
            }
            ShellState::WaitingChild => match ctx.wait_child() {
                Ok(Some((pid, code))) => {
                    ctx.print(&format!("[pid {pid} exited with {code}]"));
                    self.state = ShellState::ReadingInput;
                    StepResult::Continue
                }
                // Parked until the child exits.
                Ok(None) | Err(KernelError::WouldBlock) => StepResult::Continue,
                Err(_) => {
                    self.state = ShellState::ReadingInput;
                    StepResult::Continue
                }
            },
        }
    }
    fn program_name(&self) -> &str {
        "sh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_lines_parse_with_comments_and_args() {
        assert_eq!(
            Shell::parse("ls /d # list the sd card"),
            Some(("ls".into(), vec!["/d".into()]))
        );
        assert_eq!(Shell::parse("   # just a comment"), None);
        assert_eq!(Shell::parse(""), None);
        assert_eq!(
            Shell::parse("echo hello world"),
            Some(("echo".into(), vec!["hello".into(), "world".into()]))
        );
    }

    #[test]
    fn coreutils_list_is_stable() {
        assert!(COREUTILS.contains(&"ls"));
        assert!(COREUTILS.contains(&"cat"));
        assert!(COREUTILS.contains(&"echo"));
    }
}
