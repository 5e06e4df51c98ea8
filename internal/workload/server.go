package workload

import (
	"fmt"
	"time"

	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// FileServer is the Figure 2 workload: a web server in the style of
// Apache that transmits files by memory mapping them and touching every
// byte. The experiment times how long one full pass over the working set
// takes once the set has been served before (so a perfect cache serves
// it from memory).
type FileServer struct {
	sys       vmapi.System
	proc      vmapi.Process
	FilePages int
	NumFiles  int
}

// NewFileServer creates the server process and its document root of
// NumFiles files, filePages pages each (the paper uses 64 KB files = 16
// pages).
func NewFileServer(sys vmapi.System, numFiles, filePages int) (*FileServer, error) {
	p, err := sys.NewProcess("httpd")
	if err != nil {
		return nil, err
	}
	if err := createCorpus(sys, docName, numFiles, filePages); err != nil {
		return nil, err
	}
	return &FileServer{sys: sys, proc: p, FilePages: filePages, NumFiles: numFiles}, nil
}

func docName(i int) string { return fmt.Sprintf("/htdocs/f%04d", i) }

// createCorpus builds a served corpus on sys's filesystem: numFiles files
// of filePages pages each, file i at name(i), every page stamped with its
// file and page index.
func createCorpus(sys vmapi.System, name func(i int) string, numFiles, filePages int) error {
	fs := sys.Machine().FS
	for i := 0; i < numFiles; i++ {
		err := fs.Create(name(i), filePages*param.PageSize, func(idx int, buf []byte) {
			buf[0] = byte(i)
			buf[1] = byte(idx)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ServeAll serves every file once — open, mmap shared, touch every page,
// unmap, close — and returns the simulated time the pass took.
func (s *FileServer) ServeAll() (time.Duration, error) {
	clock := s.sys.Machine().Clock
	t0 := clock.Now()
	size := param.VSize(s.FilePages) * param.PageSize
	for i := 0; i < s.NumFiles; i++ {
		vn, err := s.sys.Machine().FS.Open(docName(i))
		if err != nil {
			return 0, err
		}
		va, err := s.proc.Mmap(0, size, param.ProtRead, vmapi.MapShared, vn, 0)
		if err != nil {
			return 0, err
		}
		if err := s.proc.TouchRange(va, size, false); err != nil {
			return 0, err
		}
		if err := s.proc.Munmap(va, size); err != nil {
			return 0, err
		}
		vn.Unref()
	}
	return clock.Since(t0), nil
}

// Close exits the server process.
func (s *FileServer) Close() { s.proc.Exit() }
