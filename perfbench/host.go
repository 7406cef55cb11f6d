package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// fingerprint describes the host and the code a result was measured
// on. Timings on a shared host drift between processes; the fingerprint
// lets a reader tell runs on different machines or code apart.
func fingerprint() map[string]string {
	root := repoRoot()
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(root),
		"source":     sourceDigest(root),
	}
}

// repoRoot is the directory holding the checked module: the current
// directory when run from the repository root, else its parent.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "internal", "checker")); err == nil {
			return dir
		}
	}
	return "."
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, when it is a git checkout.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "none (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod files, so a
// result names the code it measured even outside git.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
